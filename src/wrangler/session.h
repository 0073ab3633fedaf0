#ifndef VADA_WRANGLER_SESSION_H_
#define VADA_WRANGLER_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/explain.h"
#include "datalog/snapshot_cache.h"
#include "kb/knowledge_base.h"
#include "obs/obs.h"
#include "quality/metrics.h"
#include "transducer/network.h"
#include "wrangler/config.h"
#include "wrangler/standard_transducers.h"

namespace vada {

/// The session's observability snapshot plus both machine-readable
/// renderings (see WranglingSession::MetricsReport). All fields are
/// empty when the session runs with ObsOptions{enabled = false}.
struct SessionMetricsReport {
  obs::MetricsSnapshot snapshot;
  std::string prometheus;    ///< Prometheus text exposition format
  std::string chrome_trace;  ///< Chrome trace-event JSON (Perfetto)

  bool empty() const { return snapshot.empty(); }
};

/// The public facade of the VADA architecture: one pay-as-you-go data
/// wrangling task (paper §3). The user supplies, in any order and at any
/// time, the four kinds of input the demonstration walks through —
/// sources + target schema (step 1), data context (step 2), feedback
/// (step 3), user context (step 4) — and calls Run() after each change;
/// the network transducer dynamically re-orchestrates whatever became
/// possible.
///
///   WranglingSession session;
///   session.SetTargetSchema(target);
///   session.AddSource(rightmove);
///   session.AddSource(deprivation);
///   session.Run();                        // step 1: bootstrap
///   session.AddDataContext(address, RelationRole::kReference, {...});
///   session.Run();                        // step 2: + data context
///   session.AddFeedback({tuple, "bedrooms", FeedbackPolarity::kIncorrect});
///   session.Run();                        // step 3: + feedback
///   session.SetUserContext(user_context);
///   session.Run();                        // step 4: + user context
///   const Relation* result = session.result();
class WranglingSession {
 public:
  explicit WranglingSession(WranglerConfig config = WranglerConfig());
  ~WranglingSession();

  // Moves would invalidate the transducers' pointer to state_.
  WranglingSession(const WranglingSession&) = delete;
  WranglingSession& operator=(const WranglingSession&) = delete;

  /// Declares the target schema (registered as an empty KB relation with
  /// role kTarget). Must be called before the first Run.
  Status SetTargetSchema(const Schema& target);

  /// Registers an extracted source instance (role kSource).
  Status AddSource(const Relation& data);

  /// Associates data-context data with the target schema. `kind` must be
  /// kReference, kMaster or kExample; `correspondences` map target
  /// attributes to `data`'s attributes. A relation has one binding per
  /// kind: calling again with the same relation and kind adds `data`'s
  /// rows and the new correspondences to it (DataContext::AddBinding).
  Status AddDataContext(const Relation& data, RelationRole kind,
                        std::vector<ContextCorrespondence> correspondences);

  /// Replaces the user context (pairwise priorities).
  Status SetUserContext(const UserContext& user_context);

  /// Records one feedback annotation against the current result.
  Status AddFeedback(const FeedbackItem& item);

  /// Registers a custom transducer alongside the standard suite — the
  /// paper's extensibility route ("additional transducers can be added
  /// at any time").
  Status AddTransducer(std::unique_ptr<Transducer> transducer);

  /// Orchestrates to fixpoint. Callable repeatedly; each call picks up
  /// whatever inputs changed since the last one. With durability
  /// enabled, a sticky durability failure (failed WAL append or
  /// checkpoint) is surfaced here even when orchestration succeeded.
  Status Run(OrchestrationStats* stats = nullptr);

  /// Takes a durability checkpoint now: atomic KB image plus WAL
  /// truncation (kb/durability.h). kFailedPrecondition when the session
  /// runs without durability.
  Status Checkpoint();

  /// The durability manager (nullptr when config.durability.enabled is
  /// false or recovery failed at construction).
  const DurabilityManager* durability() const { return durability_.get(); }

  /// Outcome of crash recovery at construction. OK when durability is
  /// off; kDataLoss when the durable state was unrecoverable. Run()
  /// refuses to proceed on a non-OK open status.
  Status durability_open_status() const { return durability_open_status_; }

  /// The wrangled result (nullptr before the first successful Run).
  const Relation* result() const;

  /// Quality of the current result under the session's data context,
  /// scored by the estimator quality_metrics scores mapping results with
  /// (ResultQualityEstimator): accuracy against reference data,
  /// consistency against the learned CFDs and relevance against master
  /// data, each when present.
  Result<RelationQuality> EstimateResultQuality() const;

  /// Candidate mappings / selected mapping ids currently in the KB.
  std::vector<Mapping> mappings() const;
  std::vector<std::string> selected_mappings() const;

  /// Explains where a result row came from: the mapping(s) whose results
  /// contain it, each with its rule and (via reasoner provenance) the
  /// ground source tuples it was derived from; notes when the row only
  /// exists post-repair or was assembled by fusion. This is the row-level
  /// counterpart of the orchestration trace.
  Result<std::string> ExplainResultRow(const Tuple& row) const;

  /// EXPLAIN / EXPLAIN ANALYZE one Vadalog program against the current
  /// knowledge base (DESIGN.md §5g): the chosen literal order,
  /// per-literal cost estimates and index-vs-scan decisions, and — with
  /// `analyze` — actual per-literal probes, candidates and time. The
  /// program runs (analyze) or is planned (plain) over a scratch
  /// database loaded with the relations it references; the KB is never
  /// mutated and no session metrics are recorded. Uses the session's
  /// configured planner options, so the plan is the one mapping
  /// execution and dependency scans would run with.
  Result<datalog::PlanExplain> ExplainProgram(const std::string& program_text,
                                              bool analyze = false) const;

  /// One-stop observability readout: refreshes the KB gauges
  /// (vada_kb_relation_rows et al.), snapshots the session's metrics
  /// registry, and renders both export formats. Non-empty after any
  /// Run() unless the session was built with ObsOptions{enabled=false}.
  SessionMetricsReport MetricsReport() const;

  /// The live observability context (metrics registry + span collector);
  /// disabled contexts return nullptr from metrics()/spans().
  const obs::ObsContext& obs() const { return *obs_; }

  const ExecutionTrace& trace() const { return orchestrator_->trace(); }
  /// Orchestrator readout (quarantine/failure state, trace). The session
  /// owns it for its whole lifetime.
  const NetworkTransducer& orchestrator() const { return *orchestrator_; }
  KnowledgeBase& kb() { return kb_; }
  const KnowledgeBase& kb() const { return kb_; }
  const WranglingState& state() const { return *state_; }

  /// Test hook: forgets every piece cache (DESIGN.md §5p), so the next
  /// body call recomputes each piece it reaches. What the bodies write is
  /// the same either way; tests use it to check that.
  void DropPieceCachesForTesting() { state_->pieces = PieceCaches(); }

  /// The session's one snapshot cache, shared by dependency scans and
  /// mapping execution. Exposed for tests and benches that assert on
  /// hit/miss statistics.
  const datalog::SnapshotCache& snapshot_cache() const {
    return state_->snapshot_cache;
  }

 private:
  struct KbGauges;

  /// Refreshes the KB gauges (DESIGN.md §5g) under span
  /// `session.publish_gauges`. A relation's bytes are re-measured only
  /// when its (version epoch, version) moved since the last call; the
  /// gauges of a relation that left the KB read 0.
  void PublishKbGauges() const;

  /// Registration-time static analysis of a transducer's Vadalog (input
  /// dependency, and the program of a VadalogTransducer) under
  /// config.analysis. See AnalysisEnforcement.
  Status ValidateTransducer(const Transducer& transducer) const;

  KnowledgeBase kb_;
  /// Declared right after kb_ (and destroyed before it) because the
  /// manager detaches from the KB in its destructor.
  std::unique_ptr<DurabilityManager> durability_;
  Status durability_open_status_;
  std::unique_ptr<WranglingState> state_;
  std::unique_ptr<obs::ObsContext> obs_;
  /// Registration in the observability session registry; inert when
  /// observability is disabled. Updated from PublishKbGauges, which
  /// const MetricsReport() also calls.
  mutable obs::SessionRegistry::SessionHandle session_handle_;
  /// PublishKbGauges' gauge handles and per-relation byte counts; built
  /// on its first call.
  mutable std::unique_ptr<KbGauges> kb_gauges_;
  TransducerRegistry registry_;
  std::unique_ptr<NetworkTransducer> orchestrator_;
  /// state_->pool's tasks_executed() already published to
  /// vada_pool_tasks_total.
  uint64_t pool_tasks_published_ = 0;
  /// state_->piece_counts already published to vada_body_pieces_total.
  std::map<std::string, PieceCounts> pieces_published_;
  bool transducers_registered_ = false;
};

}  // namespace vada

#endif  // VADA_WRANGLER_SESSION_H_
