#ifndef VADA_DATALOG_EXPLAIN_H_
#define VADA_DATALOG_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vada::datalog {

/// Actual join work attributed to one body literal under EXPLAIN
/// ANALYZE. The three probe counters are recorded at exactly the same
/// sites as the evaluator's JoinWork, so summing them over a plan
/// reproduces the run's EvalStats join counters — the reconciliation
/// invariant explain_test asserts.
struct LiteralRuntime {
  uint64_t scan_probes = 0;      ///< candidate facts scanned (non-indexed)
  uint64_t index_probes = 0;     ///< composite hash-index lookups
  uint64_t index_candidates = 0; ///< facts enumerated from index buckets
  /// Inclusive wall time: this literal *and* everything nested inside
  /// it in the join tree, summed across a rule's tasks (one per delta
  /// occurrence).
  uint64_t time_ns = 0;

  void Add(const LiteralRuntime& o) {
    scan_probes += o.scan_probes;
    index_probes += o.index_probes;
    index_candidates += o.index_candidates;
    time_ns += o.time_ns;
  }
};

/// One body literal in the execution order the planner chose.
struct LiteralExplain {
  size_t body_index = 0;    ///< position in the rule's *declared* body
  std::string text;         ///< source rendering of the literal
  std::string kind;         ///< "atom"|"negation"|"comparison"|"assignment"
  /// Ground column positions at literal entry (the composite index key
  /// set); empty for non-atoms and for atoms with nothing bound.
  std::vector<size_t> bound_positions;
  /// The planner's candidate-count estimate when it placed this literal
  /// (atoms only; see planner.cc EstimatedCost).
  size_t estimated_cost = 0;
  /// Static cardinality bound from the dataflow analysis that stood in
  /// for the runtime fact count (the relation was empty at compile
  /// time); 0 when the estimate came from observed facts. Rendered next
  /// to the actual counters so inferred and observed numbers can be
  /// compared side by side.
  size_t static_prior = 0;
  /// Predicted access path against the stratum-start database:
  /// "index" (composite bound-prefix hash index), "seek" (eager
  /// single-column index), "scan" (full relation), "check" (negation
  /// containment test), "filter" (comparison/assignment). Delta-
  /// restricted recursive occurrences may resolve differently at run
  /// time; the actual counters below tell the true story.
  std::string access;
  /// EXPLAIN ANALYZE only; all-zero in a plain EXPLAIN.
  LiteralRuntime actual;
};

struct RuleExplain {
  std::string text;
  bool aggregate = false;
  std::vector<LiteralExplain> literals;  ///< in execution order
  uint64_t applications = 0;             ///< ANALYZE: body evaluations
  uint64_t facts_derived = 0;            ///< ANALYZE: new head facts
};

struct StratumExplain {
  std::vector<std::string> predicates;
  std::vector<RuleExplain> rules;
};

/// The full plan of one program, one entry per stratum. Produced by
/// Evaluator::Explain; estimates in a plain EXPLAIN use the database
/// as-is for *every* stratum (a run would see earlier strata's derived
/// facts), while EXPLAIN ANALYZE compiles each stratum against its true
/// stratum-start state because it actually runs.
struct PlanExplain {
  bool analyzed = false;
  std::vector<StratumExplain> strata;

  /// Sum of the per-literal actuals (ANALYZE); zero otherwise.
  LiteralRuntime Totals() const;

  /// Indented text tree, one line per stratum/rule/literal.
  std::string ToText() const;

  /// Machine-readable rendering of the same tree.
  std::string ToJson() const;
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_EXPLAIN_H_
