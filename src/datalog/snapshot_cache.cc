#include "datalog/snapshot_cache.h"

#include <utility>

namespace vada::datalog {

std::shared_ptr<const Database> SnapshotCache::Get(const KnowledgeBase& kb,
                                                   const std::string& name) {
  const uint64_t epoch = kb.version_epoch();
  const uint64_t version = kb.relation_version(name);
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.epoch == epoch &&
        it->second.version == version) {
      ++stats_.hits;
      if (hits_counter_ != nullptr) hits_counter_->Increment();
      return it->second.snapshot;
    }
  }

  // Miss: build outside the lock so a large copy does not serialize
  // concurrent lookups of other relations. Two workers racing on the
  // same relation build identical snapshots (the KB is not mutated
  // while scans run); last insert wins.
  const Relation* rel = kb.FindRelation(name);
  if (rel == nullptr) {
    MutexLock lock(mutex_);
    ++stats_.misses;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    return nullptr;
  }
  auto snapshot = std::make_shared<Database>();
  snapshot->LoadRelation(*rel);

  MutexLock lock(mutex_);
  ++stats_.misses;
  if (misses_counter_ != nullptr) misses_counter_->Increment();
  entries_[name] = Entry{epoch, version, snapshot};
  return snapshot;
}

std::vector<std::string> SnapshotCache::relations() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t SnapshotCache::ApproxIndexBytes() const {
  MutexLock lock(mutex_);
  size_t bytes = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.snapshot != nullptr) bytes += entry.snapshot->IndexBytes();
  }
  return bytes;
}

SnapshotCache::Stats SnapshotCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void SnapshotCache::SetCounters(obs::Counter* hits, obs::Counter* misses) {
  MutexLock lock(mutex_);
  hits_counter_ = hits;
  misses_counter_ = misses;
}

}  // namespace vada::datalog
