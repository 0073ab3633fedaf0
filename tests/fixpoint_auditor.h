#ifndef VADA_TESTS_FIXPOINT_AUDITOR_H_
#define VADA_TESTS_FIXPOINT_AUDITOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datalog/kb_adapter.h"
#include "kb/write_guard.h"
#include "transducer/network.h"
#include "transducer/transducer.h"

namespace vada {

/// Test-only idempotence audit of a transducer network. The orchestrator
/// runs a transducer again only once something its last step read or
/// wrote has moved (DESIGN.md §5n), so a body whose writes are not a
/// function of what it reads through the KB — one that is not
/// idempotent, or that reads state kept outside the KB — goes unnoticed
/// at run time. After a Run has reached its fixpoint, Offenders()
/// re-executes every captured transducer whose input dependency holds and
/// reports each one that moves the KB. It first rebuilds the sys_*
/// control relations in full, which must move nothing: the
/// orchestrator's shape-keyed sync (SyncControlFactsIfStale) skips only
/// rebuilds that would have written nothing. Given a way to drop the
/// bodies' piece caches (DESIGN.md §5p), it drops them before each
/// re-execution, so every piece a body would have reused is recomputed
/// and must reproduce what the KB holds.
class FixpointAuditor {
 public:
  /// A registry decorator that captures each transducer as it is
  /// registered and then hands it to `next` (nullptr: none), so audits
  /// bypass wrappers such as fault injection and consume no injected
  /// fault. Every registration through it must succeed: the registry
  /// owns the captured transducers, and the auditor must outlive it.
  TransducerRegistry::Decorator Decorator(
      TransducerRegistry::Decorator next = nullptr) {
    return [this, next](std::unique_ptr<Transducer> t) {
      captured_.push_back(t.get());
      return next != nullptr ? next(std::move(t)) : std::move(t);
    };
  }

  /// Names of the captured transducers that, re-executed on `kb` while
  /// their input dependency holds, moved its global version or failed.
  /// Their writes are rolled back; other re-executions change nothing.
  /// "control facts (stale)" leads the list when the full rebuild of the
  /// control relations changed them. `drop_caches`, when given, runs
  /// before each re-execution (WranglingSession::DropPieceCachesForTesting).
  std::vector<std::string> Offenders(
      KnowledgeBase* kb,
      const std::function<void()>& drop_caches = nullptr) const {
    const uint64_t synced = kb->global_version();
    Status sync = NetworkTransducer::SyncControlFacts(kb);
    if (!sync.ok()) return {"control facts: " + sync.ToString()};
    std::vector<std::string> offenders;
    if (kb->global_version() != synced) {
      offenders.push_back("control facts (stale)");
    }
    for (Transducer* t : captured_) {
      Result<std::vector<Tuple>> ready =
          datalog::QueryKnowledgeBase(t->input_dependency(), *kb, "ready");
      if (!ready.ok()) {
        offenders.push_back(t->name() + " (dependency: " +
                            ready.status().ToString() + ")");
        continue;
      }
      if (ready.value().empty()) continue;
      if (drop_caches != nullptr) drop_caches();
      const uint64_t version = kb->global_version();
      WriteGuard guard(kb);
      ExecutionContext ctx;
      Status status = t->Execute(kb, &ctx);
      if (status.ok() && kb->global_version() == version) {
        guard.Commit();  // unlike a rollback, leaves the version epoch
        continue;
      }
      guard.Rollback();
      offenders.push_back(
          status.ok() ? t->name() : t->name() + " (" + status.ToString() + ")");
    }
    return offenders;
  }

 private:
  std::vector<Transducer*> captured_;
};

}  // namespace vada

#endif  // VADA_TESTS_FIXPOINT_AUDITOR_H_
