#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace vada {

ThreadPool::ThreadPool(size_t workers) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      CvMutexLock lock(mutex_);
      cv_.wait(lock, [this]() VADA_REQUIRES(mutex_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    tasks_executed_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  // Shared loop state: workers and the caller race on next_, each
  // claiming iterations until the range is exhausted. done_ counts
  // completed iterations so the caller knows when in-flight work on
  // other threads has finished (it cannot return while a worker is
  // still inside fn).
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto state = std::make_shared<LoopState>();

  auto drain = [state, n, &fn, this] {
    size_t ran = 0;
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
      ++ran;
    }
    if (ran == 0) return;
    tasks_executed_.fetch_add(ran, std::memory_order_relaxed);
    if (state->done.fetch_add(ran, std::memory_order_acq_rel) + ran == n) {
      // Last iteration: wake the caller. Takes the lock so the notify
      // cannot slip between the caller's predicate check and its wait.
      std::lock_guard<std::mutex> lock(state->mutex);
      state->cv.notify_all();
    }
  };

  // One helper per worker is enough — each helper loops until the
  // index range is empty, so extra helpers would find nothing to do.
  size_t helpers = std::min(threads_.size(), n - 1);
  {
    MutexLock lock(mutex_);
    if (stop_) helpers = 0;
    for (size_t i = 0; i < helpers; ++i) queue_.emplace_back(drain);
  }
  for (size_t i = 0; i < helpers; ++i) cv_.notify_one();

  drain();  // caller participates: completion never depends on a free worker

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == n;
  });
  // Helpers that dequeue after this point see next >= n and exit
  // immediately; state is kept alive by their shared_ptr captures.
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(
      [this, fn = std::move(fn)] {
        fn();
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      });
  std::future<void> future = task->get_future();
  bool inline_run = threads_.empty();
  if (!inline_run) {
    MutexLock lock(mutex_);
    if (stop_) {
      inline_run = true;
    } else {
      queue_.emplace_back([task] { (*task)(); });
    }
  }
  if (inline_run) {
    (*task)();
  } else {
    cv_.notify_one();
  }
  return future;
}

size_t HardwareThreads() {
  static const size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  return threads;
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace vada
