#ifndef VADA_DATALOG_PLANNER_H_
#define VADA_DATALOG_PLANNER_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace vada::datalog {

class Database;

/// Join-planning knobs of the evaluator (DESIGN.md §5f). The defaults
/// are the fast path; `{.indexes = false, .reorder = false}` is the
/// reference oracle the differential fuzz harness compares against:
/// body literals keep the legacy bind-aware order and every atom is
/// resolved by scanning the full relation.
///
/// Both knobs are *output-preserving up to row order*: the set of
/// derived facts is identical at any setting (and `indexes` alone never
/// changes row order either — index buckets keep insertion order, so
/// probing enumerates the same facts in the same order a scan would).
struct PlannerOptions {
  /// Probe lazy per-(predicate, bound-position-set) hash indexes for the
  /// bound prefix of each body atom instead of scanning candidates.
  /// false: atoms are resolved by full scans (the oracle path).
  bool indexes = true;
  /// Reorder body literals greedily by estimated selectivity — bound
  /// positions, relation cardinality, constants first — instead of the
  /// legacy bound-count heuristic. Negations, comparisons and
  /// assignments are hoisted as early as their variables allow in both
  /// modes.
  bool reorder = true;
  /// Relations with fewer facts than this are scanned rather than
  /// indexed: building a hash table over a handful of tuples costs more
  /// than the scan it would save (deltas of semi-naive rounds are
  /// usually below this).
  size_t min_index_size = 32;
  /// Run the dataflow ProgramOptimizer (constant folding, dead/
  /// unreachable-rule elimination, magic-set specialization toward the
  /// query goal) before evaluation, and seed `priors` from the static
  /// cardinality analysis. Goal-visible output is preserved bit-for-bit;
  /// facts of predicates the goal does not need may no longer be
  /// derived, which is why this is opt-in.
  bool optimize = false;
  /// Static cardinality upper bounds (predicate -> max distinct facts)
  /// from the dataflow analysis. Consulted by EstimatedCost only for
  /// predicates with no facts yet — typically IDB predicates at
  /// stratum-compile time, where the runtime count is always 0 and the
  /// planner would otherwise treat every recursive atom as free.
  std::shared_ptr<const std::map<std::string, size_t>> priors = nullptr;
};

/// Per-literal record of one planning decision, in execution order.
/// Feeds EXPLAIN (datalog/explain.h); zero-cost when not requested.
struct LiteralPlan {
  size_t body_index = 0;      ///< position in the rule's declared body
  /// The candidate-count estimate at placement time: positive atoms get
  /// EstimatedCost (cardinality shrunk per bound position); hoisted
  /// builtins/negations cost 0. Meaningful only in cost-based mode —
  /// the legacy heuristic never computes costs and records 0.
  size_t estimated_cost = 0;
  size_t bound_terms = 0;     ///< ground terms at placement time
  /// The static cardinality prior that stood in for the (zero) runtime
  /// fact count when estimating this literal, 0 when runtime stats were
  /// used. Lets EXPLAIN show where a plan rests on inference rather
  /// than observation.
  size_t static_prior = 0;
};

/// Returns the execution order of `rule`'s body as indexes into
/// `rule.body`. Greedy: at every step, ready negations / comparisons /
/// assignments (all their variables bound) are hoisted first; then the
/// cheapest positive atom is chosen —
///  * with `options.reorder` and a non-null `db`: smallest estimated
///    candidate count, `FactCount` shrunk per bound position (constants
///    and variables bound by already-placed literals); ties prefer more
///    bound positions, then declared order;
///  * otherwise (legacy heuristic, the oracle): most bound terms, ties
///    by declared order.
/// When `plan` is non-null it receives one LiteralPlan per body literal,
/// parallel to the returned order.
/// Exposed for the planner unit tests; the evaluator calls it per rule
/// at stratum-compile time with the stratum-start database.
std::vector<size_t> PlanBodyOrder(const Rule& rule, const Database* db,
                                  const PlannerOptions& options,
                                  std::vector<LiteralPlan>* plan = nullptr);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_PLANNER_H_
