#ifndef VADA_COMMON_THREAD_POOL_H_
#define VADA_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace vada {

/// A fixed-size worker pool with a single shared FIFO queue — no work
/// stealing, no dynamic sizing. Built for the fan-out/fan-in pattern of
/// transducer bodies (one task per dedup block, mapping, quality subject
/// or source/binding pair): `ParallelFor` is the workhorse, `Submit`
/// covers free-form tasks.
///
/// Determinism contract: the pool never decides *what* runs or in what
/// order results are consumed — callers build an indexed task list and
/// merge results by index, so outputs are identical no matter how the
/// iterations interleave. A pool constructed with `workers == 0` runs
/// everything inline on the calling thread, which is the injectable
/// escape hatch for single-threaded tests.
///
/// `ParallelFor` is reentrant: a task may itself call `ParallelFor`.
/// The calling thread always participates in the loop, so progress
/// never depends on a free worker (no nested-fan-out deadlock).
class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 means inline mode: no threads are
  /// created and all work runs on the caller.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 in inline mode).
  size_t workers() const { return threads_.size(); }

  /// Runs fn(0) .. fn(n-1), blocking until all have finished. The
  /// caller participates, so this completes even when every worker is
  /// busy. fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues one task; the future resolves when it has run. In inline
  /// mode the task runs before Submit returns.
  std::future<void> Submit(std::function<void()> fn);

  /// Total iterations/tasks executed since construction (including
  /// inline-mode and caller-executed ParallelFor iterations). The
  /// common layer cannot depend on obs, so this is a plain counter the
  /// caller publishes as the `vada_pool_tasks_total` metric.
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::atomic<uint64_t> tasks_executed_{0};

  Mutex mutex_;
  // _any because the annotated Mutex/CvMutexLock pair is not
  // std::mutex/std::unique_lock; the queue wait is coarse enough that
  // the indirection cost is noise.
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ VADA_GUARDED_BY(mutex_);
  bool stop_ VADA_GUARDED_BY(mutex_) = false;
};

/// std::thread::hardware_concurrency(), at least 1. Read once per process:
/// the call reads sysfs, and every default WranglerConfig asks for it.
size_t HardwareThreads();

/// `pool->ParallelFor(n, fn)`, or fn(0) .. fn(n-1) on the calling thread
/// when `pool` is null (a session configured with one thread has none).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace vada

#endif  // VADA_COMMON_THREAD_POOL_H_
