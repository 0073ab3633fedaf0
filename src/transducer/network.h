#ifndef VADA_TRANSDUCER_NETWORK_H_
#define VADA_TRANSDUCER_NETWORK_H_

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/planner.h"
#include "datalog/snapshot_cache.h"
#include "kb/knowledge_base.h"
#include "obs/obs.h"
#include "transducer/failure_policy.h"
#include "transducer/trace.h"
#include "transducer/transducer.h"

namespace vada {

/// Decides which of the eligible transducers runs next. "It is the
/// responsibility of a network transducer to select between the
/// executable transducers" (paper §2.4). Policies are written by
/// transducer developers or system administrators.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual const std::string& name() const = 0;
  /// Pre-condition: `eligible` is non-empty (the orchestrator reaches
  /// fixpoint before ever calling Choose on an empty set). Must return
  /// one of its elements. Implementations should debug-assert the
  /// precondition and return nullptr (never dereference) when violated
  /// by a direct caller; the orchestrator treats nullptr as an error.
  virtual Transducer* Choose(const std::vector<Transducer*>& eligible) = 0;
};

/// The paper's generic network-transducer policy: "choosing transducers
/// for one type of functionality before another, such as data extraction
/// before mapping, and then using a priority scheme to make more local
/// decisions". Activities earlier in `activity_order` win; ties fall back
/// to registration order. Unknown activities rank last.
class ActivityPriorityPolicy : public SchedulingPolicy {
 public:
  explicit ActivityPriorityPolicy(std::vector<std::string> activity_order);

  /// The default VADA ordering: matching, mapping, execution, quality,
  /// repair, selection, fusion, feedback.
  static std::vector<std::string> DefaultActivityOrder();

  const std::string& name() const override { return name_; }
  /// Pre-condition: `eligible` non-empty (see SchedulingPolicy::Choose).
  Transducer* Choose(const std::vector<Transducer*>& eligible) override;

 private:
  std::string name_ = "activity_priority";
  std::map<std::string, int> rank_;
};

/// Registration-order policy — the "no domain knowledge" baseline.
class FifoPolicy : public SchedulingPolicy {
 public:
  const std::string& name() const override { return name_; }
  /// Pre-condition: `eligible` non-empty (see SchedulingPolicy::Choose).
  Transducer* Choose(const std::vector<Transducer*>& eligible) override;

 private:
  std::string name_ = "fifo";
};

/// Options for the orchestrator.
struct OrchestratorOptions {
  /// Hard step cap: a diverging (non-idempotent) transducer set stops
  /// with an error instead of spinning.
  size_t max_steps = 500;
  bool record_trace = true;
  /// Observability context (not owned; may outlive many Run calls). Null
  /// or disabled: every instrumentation site reduces to a pointer check.
  obs::ObsContext* obs = nullptr;
  /// Fault tolerance: write-guard rollback, retry/backoff, quarantine,
  /// budgets, failure facts (see failure_policy.h).
  FailurePolicy failure_policy;
  /// Version-keyed relation-snapshot cache shared by the dependency
  /// queries (not owned; a session passes the one cache its mapping
  /// execution also reads through). Only relations whose version moved
  /// since the previous scan are re-snapshotted. Null: every query
  /// copies what it reads — for standalone orchestrators in tests and
  /// benches.
  datalog::SnapshotCache* snapshot_cache = nullptr;
  /// Join planning of the scan's dependency queries (composite index
  /// probing, cost-based literal reordering; see datalog/planner.h).
  datalog::PlannerOptions planner;
};

/// Aggregate statistics of one orchestration run.
struct OrchestrationStats {
  size_t steps = 0;
  size_t effective_steps = 0;   ///< steps that changed the KB
  size_t dependency_checks = 0; ///< input-dependency query evaluations
  /// Dependency answers reused because the query's read set did not move
  /// since it was last evaluated (no query ran; see NetworkTransducer).
  size_t dependency_memo_hits = 0;
  size_t failures = 0;          ///< steps whose every attempt failed
  size_t retries = 0;           ///< extra Execute() attempts after a failure
  size_t rollbacks = 0;         ///< write-guard rollbacks performed
  size_t quarantined = 0;       ///< transducers benched when Run returned
  bool budget_exhausted = false; ///< Run stopped on its wall-clock budget
};

/// The dynamic orchestrator (the paper's network transducer). Repeatedly:
///  1. brings the sys_* control relations describing the KB
///     (sys_relation_role, sys_relation_nonempty, sys_relation_attribute)
///     up to date, rebuilding them only when a relation's shape changed
///     (SyncControlFactsIfStale);
///  2. finds eligible transducers: a relation or role the transducer's
///     last step read or wrote has moved since (its read-set key no
///     longer holds; DESIGN.md §5n) AND its input dependency derives
///     `ready` AND it is not quarantined. A dependency answer is
///     memoised on the same key type, over the relations its query reads,
///     and re-evaluated only when one of them moved (DESIGN.md §5l);
///  3. lets the scheduling policy pick one and executes it under a
///     KB write-guard, retrying failed attempts per the failure policy,
///     while the KB records what the step reads and writes;
/// until no transducer is eligible (fixpoint), max_steps is hit, or the
/// wall-clock budget runs out (best-effort stop).
///
/// Failure semantics (DESIGN.md §5d): a failing Execute() never leaves
/// partial writes behind (rollback), is retried with exponential backoff,
/// and is eventually quarantined (circuit breaker) so the session
/// degrades gracefully instead of aborting. Failures become KB facts:
/// sys_transducer_failure(transducer, code, attempt, step) and
/// sys_transducer_quarantined(transducer, step).
class NetworkTransducer {
 public:
  /// Circuit-breaker state of one transducer (exposed for tests/UIs).
  enum class Circuit {
    kClosed = 0,  ///< healthy, schedulable
    kOpen,        ///< quarantined: excluded from the eligible set
    kHalfOpen,    ///< probation: next execution is a trial
  };

  /// Per-transducer failure bookkeeping.
  struct FailureState {
    Circuit circuit = Circuit::kClosed;
    size_t consecutive_failures = 0;
    size_t total_failures = 0;
    size_t cooldown_progress = 0;  ///< scans sat out while open
    size_t probes_used = 0;        ///< half-open probes spent this Run
    /// Fixpoint retry granted to a closed circuit with pending failures
    /// (skips the read-set key once); cleared on the next execution.
    bool retry_scheduled = false;
    std::string last_error;
  };

  NetworkTransducer(TransducerRegistry* registry,
                    std::unique_ptr<SchedulingPolicy> policy,
                    OrchestratorOptions options = OrchestratorOptions());

  /// Runs to fixpoint. The trace accumulates across calls (pay-as-you-go
  /// steps re-enter Run after the user adds context/feedback).
  Status Run(KnowledgeBase* kb, OrchestrationStats* stats = nullptr);

  /// Evaluates one transducer's input dependency against `kb` (with
  /// control relations refreshed), sharing the scans' answer memo;
  /// exposed for Table 1 benches/tests.
  Result<bool> IsSatisfied(const Transducer& transducer, KnowledgeBase* kb);

  const ExecutionTrace& trace() const { return trace_; }
  void ClearTrace() { trace_ = ExecutionTrace(); }

  /// Refreshes the sys_* control relations; normally internal, exposed
  /// for tests.
  static Status SyncControlFacts(KnowledgeBase* kb);

  /// SyncControlFacts, run only when the control facts may have moved
  /// since this instance's previous sync: on the first sync, in a new
  /// version epoch, after someone else wrote a sys_relation_* relation,
  /// or when a non-sys relation's shape changed — it was created or
  /// dropped, became empty or non-empty, or changed its role or
  /// attribute names. A relation's rows in the control relations depend
  /// on its shape alone, so a write that keeps every shape costs one
  /// version comparison per relation and writes nothing. Catalog role
  /// changes move no relation version (Catalog::SetRole moves only the
  /// role's version), so the check also compares the role versions.
  Status SyncControlFactsIfStale(KnowledgeBase* kb);

  /// Names of transducers whose circuit is currently open, sorted.
  std::vector<std::string> QuarantinedTransducers() const;

  /// Failure bookkeeping for `name`; nullptr when it never failed.
  const FailureState* failure_state(const std::string& name) const;

 private:
  /// Records one failure (execute or dependency-eval): metrics, failure
  /// facts, consecutive-failure count, circuit transitions.
  void RecordFailure(Transducer* transducer, const Status& error,
                     size_t attempts, size_t step, KnowledgeBase* kb,
                     OrchestrationStats* stats, obs::MetricsRegistry* metrics);

  /// Transitions after a successful step: closes a half-open circuit
  /// (exits quarantine) and resets the consecutive-failure count.
  void RecordSuccess(Transducer* transducer, KnowledgeBase* kb,
                     obs::MetricsRegistry* metrics);

  size_t OpenCircuits() const;
  void PublishQuarantineGauge(obs::MetricsRegistry* metrics) const;

  /// One distinct dependency-query text: its parsed program, the KB
  /// relations the program reads, and its memoised answer. The answer is
  /// a pure function of the read set's contents; so while `key` still
  /// holds, `ready` is the answer and no query runs.
  struct Dependency {
    datalog::Program program;
    ReadSet reads;  ///< datalog::ReferencedRelations
    /// Empty until the first successful evaluation; then the read set's
    /// versions at that evaluation. Failed evaluations are never
    /// memoised.
    ReadSetKey key;
    bool ready = false;
  };

  /// Evaluates `dep`'s query over `kb` with the orchestrator's planner
  /// options, snapshot cache and metrics — the one evaluation path of
  /// both Run's eligibility scans and IsSatisfied.
  Result<std::vector<Tuple>> EvaluateDependency(const Dependency& dep,
                                                const KnowledgeBase& kb) const;

  /// Returns the entry for a dependency-query text, parsing it at most
  /// once per distinct text (dependency texts are fixed at transducer
  /// construction; transducers with the same text share one entry).
  Result<Dependency*> DependencyFor(const std::string& source);

  /// What one non-sys relation contributes to the control relations.
  struct ControlShape {
    std::optional<RelationRole> role;
    bool nonempty = false;
    std::vector<std::string> attributes;

    /// The current shape of `name`, which `kb` must hold.
    static ControlShape Of(const KnowledgeBase& kb, const std::string& name);
    bool operator==(const ControlShape&) const = default;
  };

  /// What the control relations were last derived from: the KB's global
  /// version, version epoch and catalog role versions, the versions of
  /// the sys_relation_* relations after that sync, and the version and
  /// shape of every non-sys relation. `synced` is false before the first
  /// sync and after a failed rebuild.
  struct ControlSync {
    bool synced = false;
    uint64_t global_version = 0;
    uint64_t epoch = 0;
    std::array<uint64_t, kRelationRoleCount> role_versions{};
    std::array<uint64_t, 3> sys_versions{};
    std::map<std::string, std::pair<uint64_t, ControlShape>> shapes;
  };

  /// Brings the remembered version and shape of every non-sys relation
  /// up to date with `kb`, re-deriving the shape of each whose version
  /// moved (of every one when `recheck_all`). Returns whether any shape
  /// changed: a relation was created or dropped, or a re-derived shape
  /// differs.
  bool RefreshShapes(const KnowledgeBase& kb, bool recheck_all);

  TransducerRegistry* registry_;  // not owned
  std::unique_ptr<SchedulingPolicy> policy_;
  OrchestratorOptions options_;
  ExecutionTrace trace_;
  /// Per transducer: the versions of what its last step read and wrote
  /// (the whole KB after a failure). Absent until its first step.
  std::map<std::string, ReadSetKey> keys_;
  std::map<std::string, FailureState> failure_state_;
  std::map<std::string, Dependency> dependencies_;
  ControlSync control_;
  size_t next_step_ = 0;
};

}  // namespace vada

#endif  // VADA_TRANSDUCER_NETWORK_H_
