#ifndef VADA_WRANGLER_CONFIG_H_
#define VADA_WRANGLER_CONFIG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "context/data_context.h"
#include "context/user_context.h"
#include "datalog/planner.h"
#include "datalog/snapshot_cache.h"
#include "feedback/feedback.h"
#include "fusion/dedup.h"
#include "feedback/propagation.h"
#include "kb/durability.h"
#include "kb/read_set.h"
#include "mapping/executor.h"
#include "mapping/generator.h"
#include "mapping/selector.h"
#include "match/combiner.h"
#include "match/instance_matcher.h"
#include "match/schema_matcher.h"
#include "obs/obs.h"
#include "quality/cfd.h"
#include "quality/metrics.h"
#include "transducer/failure_policy.h"
#include "transducer/transducer.h"

namespace vada {

/// Options of the source-selection transducer (paper §2.3: "a source
/// selection or a mapping selection transducer ... selects sources or
/// mappings, taking into account the user context").
struct SourceSelectorOptions {
  /// Sources whose trust score falls below this are excluded from
  /// mapping generation entirely.
  double min_trust = 0.25;
  /// Master switch; with false, trust scores are still computed (they
  /// weight fusion votes) but nothing is excluded.
  bool exclude_below_min = true;
};

/// Parallel transducer bodies (DESIGN.md §5e).
struct ParallelismOptions {
  /// Threads the session's pool runs transducer bodies on, the calling
  /// thread included: duplicate detection (one task per blocking-key
  /// block), mapping execution (one per mapping), quality_metrics and
  /// source_quality (one per mapping result or source) and
  /// instance_matching (one per source and data-context binding).
  /// Orchestration, repair and every KB read and write stay on the
  /// calling thread. Defaults to the hardware thread count; 1 (or 0)
  /// creates no pool and runs everything inline.
  /// Output is identical at every setting — tasks merge in fixed order —
  /// so this changes only wall time.
  size_t threads = HardwareThreads();
};

/// How strictly the session enforces static analysis of transducer
/// Vadalog (input dependencies and VadalogTransducer programs) at
/// registration time.
enum class AnalysisEnforcement {
  kOff = 0,         ///< skip analysis entirely
  kErrorsOnly = 1,  ///< errors fail registration; warnings are logged
  kStrict = 2,      ///< warnings fail registration too
};

/// Tuning knobs of the standard transducer suite. Every component's
/// options are surfaced so deployments (and ablation benches) can adjust
/// behaviour without new transducers.
struct WranglerConfig {
  SchemaMatcherOptions schema_matcher;
  InstanceMatcherOptions instance_matcher;
  CombinerOptions combiner;
  MappingGeneratorOptions generator;
  CfdLearnerOptions cfd_learner;
  SelectorOptions selector;
  SourceSelectorOptions source_selector;
  DedupOptions dedup;  ///< blocking attribute auto-chosen when empty
  PropagatorOptions propagator;
  /// Observability: metrics, spans and exports (see WranglingSession::
  /// MetricsReport). `obs.enabled = false` strips all instrumentation
  /// down to pointer checks on the hot paths.
  obs::ObsOptions obs;
  /// Registration-time static analysis of transducer Vadalog (safety,
  /// stratification, wardedness, catalog, lint). With the default,
  /// analysis errors (unsafe rules, arity mismatches, missing `ready`
  /// goal) reject the transducer and warnings are logged.
  AnalysisEnforcement analysis = AnalysisEnforcement::kErrorsOnly;
  /// Fault tolerance of the orchestration loop: write-guard rollback,
  /// retry with exponential backoff, quarantine (circuit breaker),
  /// execution budgets and failure facts. Defaults degrade gracefully;
  /// set `fault_tolerance.enabled = false` for the bare fail-fast loop
  /// or `on_failure_exhausted = FailureAction::kAbort` to fail fast
  /// *with* rollback and retries. See failure_policy.h and DESIGN.md §5d.
  FailurePolicy fault_tolerance;
  /// Parallel transducer bodies: the threads that duplicate detection,
  /// mapping execution, quality scoring and instance matching fan out
  /// over. Defaults to the hardware thread count; threads = 1 runs every
  /// body inline. See DESIGN.md §5e and README "Performance & tuning".
  ParallelismOptions parallelism;
  /// Join planning for every Datalog evaluation the session runs —
  /// mapping execution, dependency scans and orchestration queries:
  /// composite hash-index probing and cost-based literal reordering
  /// (DESIGN.md §5f). Defaults on; `{.indexes = false, .reorder =
  /// false}` is the full-scan reference oracle. The derived facts are
  /// identical at every setting of `indexes`/`reorder`. `optimize`
  /// additionally runs the goal-directed dataflow rewrites (DESIGN.md
  /// §5h) on the session's orchestration queries — goal-visible results
  /// are unchanged, but facts of predicates a query does not need may
  /// no longer be derived into its scratch database. See README
  /// "Performance & tuning".
  datalog::PlannerOptions planner;
  /// Knowledge-base durability: write-ahead logging of every KB
  /// mutation, atomic checkpoints and crash recovery at session open
  /// (kb/durability.h, DESIGN.md §5i). Off by default — the commit path
  /// is then identical to the purely in-memory one. With `enabled`,
  /// `directory` must name a writable location; the session recovers
  /// whatever committed state that directory holds before the first
  /// Run().
  DurabilityOptions durability;
  /// Applied to every transducer registered through the session
  /// (standard suite and custom). Used by the fault-injection soak
  /// harness (fault_injection.h); nullptr means no wrapping.
  TransducerRegistry::Decorator transducer_decorator;
  /// Name of the final result relation in the knowledge base.
  std::string result_relation = "wrangled_result";
  /// Display name under which the session registers itself in the
  /// observability session registry (the /sessions endpoint; DESIGN.md
  /// §5g). Names need not be unique — the registry id disambiguates.
  std::string session_name = "wrangling-session";
};

/// The quality context compiled from the data context (DESIGN.md §5o):
/// the CFDs learned from its reference and master bindings, compiled into
/// one checker against the evidence (the first learnable binding's
/// instances in target vocabulary), cached under the versions of the
/// relations the learner read (see LearnedCfdsOf). The checker read the
/// evidence when it was built and keeps no pointer to it.
struct LearnedCfds {
  ReadSetKey key;
  CfdChecker checker{{}, nullptr};

  /// The checker when any CFD was learned, else nullptr: consistency is
  /// measurable only then (paper §2.3).
  const CfdChecker* consistency_checker() const {
    return checker.cfds().empty() ? nullptr : &checker;
  }
};

/// One piece's key and what is kept for it (DESIGN.md §5p).
template <typename Kept>
struct CachedPiece {
  ReadSetKey key;
  Kept kept;
};

/// The standard bodies' piece caches (DESIGN.md §5p): per independent
/// piece of a body, the versions of what it read, and its output where
/// the KB does not hold it. A body runs only the pieces whose key no
/// longer holds and reassembles the rest from here.
struct PieceCaches {
  /// mapping_execution, by mapping id: the mapping as evaluated (result
  /// predicate, sources, rule text). The KB holds the result.
  std::map<std::string, CachedPiece<std::string>> execution;
  /// mapping_repair, by mapping id. The KB holds the repaired relation.
  std::map<std::string, ReadSetKey> repair;
  /// quality_metrics by mapping id, source_quality by source: the facts.
  std::map<std::string, CachedPiece<std::vector<QualityMetricFact>>> quality;
  std::map<std::string, CachedPiece<std::vector<QualityMetricFact>>>
      source_quality;
  /// instance_matching, by source, context relation and binding kind:
  /// the candidates kept.
  std::map<std::string, CachedPiece<std::vector<MatchCandidate>>> matching;
  /// fusion: the previous union and its blocks' duplicate pairs.
  DedupMemo dedup;

  /// Approximate resident bytes (the vada_piece_cache_bytes gauge).
  size_t ApproxBytes() const;
};

/// Pieces one body ran and reused (vada_body_pieces_total).
struct PieceCounts {
  uint64_t run = 0;
  uint64_t reused = 0;
};

/// Mutable state shared by the standard transducers and the session that
/// owns them. Transducer bodies take their inputs — target, sources, data
/// context, user context, metadata — from the knowledge base, so a body's
/// writes are a function of what it read through the KB (DESIGN.md §5n);
/// feedback propagation is gated on the KB's feedback relation. This
/// struct holds configuration, caches keyed on KB versions, transducer
/// memos, counters and the worker pool.
struct WranglingState {
  WranglerConfig config;
  /// Name of the target-schema relation registered in the KB.
  std::string target_relation;
  /// The feedback items themselves; the KB's feedback relation holds one
  /// row per item (a hash of the tuple, not the tuple).
  FeedbackStore feedback;
  /// Memoised feedback lineage, feedback_propagation's own memo: once an
  /// annotation is attributed to the matches that fed it, the attribution
  /// is permanent — even after the resulting penalty changes the
  /// mappings (see MatchAttribution docs).
  std::vector<MatchAttribution> feedback_attributions;
  std::set<size_t> attributed_feedback_items;
  /// Cache of the compiled quality context; cfd_learning,
  /// mapping_repair, quality_metrics, source_quality and the session's
  /// quality estimate share it.
  LearnedCfds learned_cfds;
  /// How often learned_cfds was (re)built, an empty context included:
  /// once per version of what it is keyed on (the
  /// vada_quality_context_compiles gauge).
  uint64_t quality_context_compiles = 0;
  /// The piece caches of mapping_execution, mapping_repair,
  /// quality_metrics, source_quality, instance_matching and fusion.
  PieceCaches pieces;
  /// Pieces run and reused over the session, by transducer.
  std::map<std::string, PieceCounts> piece_counts;
  /// The session's one version-keyed snapshot cache (always on —
  /// entries are keyed on the KB version epoch and relation version; see
  /// datalog/snapshot_cache.h). Dependency scans and mapping execution
  /// both borrow shared immutable relation snapshots from it instead of
  /// re-interning a relation per query or per mapping.
  datalog::SnapshotCache snapshot_cache;
  /// Duplicate-detection work summed over every fusion run of the
  /// session (published as the vada_dedup_* gauges).
  DedupStats dedup_stats;
  /// The session's one worker pool (config.parallelism.threads - 1
  /// workers, started by the first Run; null at one thread and before
  /// that Run). Bodies fan independent pieces out over it (DESIGN.md
  /// §5e); a task calls no KnowledgeBase method and returns plain data,
  /// and the calling thread does every KB read before the fan-out and
  /// every KB write after it.
  std::unique_ptr<ThreadPool> pool;
};

}  // namespace vada

#endif  // VADA_WRANGLER_CONFIG_H_
