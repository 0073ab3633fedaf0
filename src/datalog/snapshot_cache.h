#ifndef VADA_DATALOG_SNAPSHOT_CACHE_H_
#define VADA_DATALOG_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "datalog/database.h"
#include "kb/knowledge_base.h"
#include "obs/metrics.h"

namespace vada::datalog {

/// Version-keyed cache of per-relation `Database` snapshots.
///
/// Every orchestration step re-runs the dependency queries of every
/// candidate transducer, and mapping execution reads the same source
/// relations mapping after mapping. Between steps only the relations a
/// transducer just wrote actually change, so most re-interning of
/// relations is redundant — this cache keeps one immutable
/// single-relation snapshot per relation, keyed by the KB's version
/// epoch and the relation's version counter, and rebuilds an entry only
/// when either moved. A session owns one cache and shares it between
/// dependency scans and mapping execution.
///
/// Keying invariant: a cached snapshot for (name, epoch, v) is
/// byte-equivalent to the relation's contents whenever
/// `kb.version_epoch() == epoch && kb.relation_version(name) == v`.
/// Every KnowledgeBase mutation bumps the relation's version, and
/// versions come from the global counter, so a dropped-and-recreated
/// relation never reuses an old version. `WriteGuard::Rollback` does
/// rewind that counter, so the next mutation can receive a version a
/// rolled-back write already had — but a rewinding rollback also bumps
/// the epoch, so every entry built before it misses once and is rebuilt.
/// The dependency memo keys on the same pair (transducer/network.h).
///
/// Composite join indexes (Database::EnsureBoundIndex) live on the
/// snapshot databases themselves, so every evaluation borrowing one
/// snapshot shares one lazily built index; dropping or rebuilding a
/// snapshot drops its indexes with it.
///
/// Thread-safe: `Get` may be called concurrently. A session calls it only
/// on the thread that owns the KB (the KB's access log is not
/// synchronised) and hands the snapshots to pool workers, which may
/// evaluate over one snapshot at once: snapshots are returned as
/// `shared_ptr<const Database>` and are immutable after construction,
/// their lazily built indexes included (Database::EnsureBoundIndex).
class SnapshotCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  SnapshotCache() = default;

  /// Returns an immutable snapshot of relation `name` at the KB's
  /// current version epoch and the relation's current version, building
  /// and caching it on miss. Returns nullptr when the relation does not
  /// exist (negative result is not cached: absence is cheap to re-check
  /// and has no version to key on).
  std::shared_ptr<const Database> Get(const KnowledgeBase& kb,
                                      const std::string& name);

  /// Names of the relations currently cached, sorted.
  std::vector<std::string> relations() const;

  /// Approximate resident bytes of the composite join indexes built on
  /// the cached snapshots (the only place persistent composite indexes
  /// live — per-evaluation databases are discarded with their run).
  size_t ApproxIndexBytes() const;

  Stats stats() const;

  /// Optional observability hookup: when set, hits and misses are also
  /// counted on these metrics (`vada_snapshot_cache_{hits,misses}_total`).
  /// Either pointer may be null. Not owned.
  void SetCounters(obs::Counter* hits, obs::Counter* misses);

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t version = 0;
    std::shared_ptr<const Database> snapshot;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ VADA_GUARDED_BY(mutex_);
  Stats stats_ VADA_GUARDED_BY(mutex_);
  obs::Counter* hits_counter_ VADA_GUARDED_BY(mutex_) = nullptr;
  obs::Counter* misses_counter_ VADA_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_SNAPSHOT_CACHE_H_
