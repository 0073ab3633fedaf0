#ifndef VADA_MAPPING_EXECUTOR_H_
#define VADA_MAPPING_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/planner.h"
#include "datalog/provenance.h"
#include "datalog/snapshot_cache.h"
#include "kb/knowledge_base.h"
#include "kb/schema.h"
#include "mapping/mapping.h"

namespace vada {

/// A mapping's result as symbol ids: `rows` rows of `arity` ids each,
/// row-major, sorted in Tuple order. Plain data, so a pool worker can
/// build it and the thread that owns the KB turns it into the result
/// relation (MappingExecutor::ToRelation).
struct MappingRows {
  size_t arity = 0;
  size_t rows = 0;
  std::vector<datalog::SymbolId> ids;
};

/// The relation sources a mapping evaluation borrows, in source order.
using SourceSnapshots = std::vector<std::shared_ptr<const datalog::Database>>;

/// Executes mappings by handing their rule text to the Vadalog reasoner
/// over a knowledge-base snapshot — the paper's "mappings are Vadalog"
/// made operational.
///
/// Execute does it in one call. A body that fans mappings out over a
/// pool splits it in three: Snapshots on the thread that owns the KB,
/// Evaluate on a worker (it touches neither the KB nor the cache), and
/// ToRelation back on the owning thread. The result is Execute's, row
/// for row.
class MappingExecutor {
 public:
  /// `planner` configures join planning of the underlying evaluations
  /// (defaults: indexes + reordering on; see datalog/planner.h).
  explicit MappingExecutor(datalog::PlannerOptions planner = {})
      : planner_(planner) {}

  /// Optional version-keyed snapshot cache for source-relation loads.
  /// When set, each mapping borrows immutable shared snapshots of its
  /// sources (zero-copy, indexes shared across mappings) instead of
  /// re-interning every source relation per Execute call. Not owned;
  /// must outlive the executor. Always safe: snapshots are keyed on the
  /// KB version epoch and relation version, so a stale entry can never
  /// be returned.
  void set_snapshot_cache(datalog::SnapshotCache* cache) { cache_ = cache; }

  /// Evaluates `mapping` against the source instances in `kb` and returns
  /// the result as a relation with the target schema's attribute names,
  /// named `mapping.result_predicate`. When `provenance` is non-null,
  /// records the derivation of every result tuple (rule + ground source
  /// tuples), enabling row-level explanations.
  Result<Relation> Execute(const Mapping& mapping, const Schema& target,
                           const KnowledgeBase& kb,
                           datalog::Provenance* provenance = nullptr) const;

  /// `mapping`'s source snapshots from the snapshot cache, in
  /// `mapping.source_relations` order (absent relations are skipped).
  /// Looks each source up in `kb`: call it on the thread that owns the
  /// KB. Pre-condition: a snapshot cache is set.
  SourceSnapshots Snapshots(const Mapping& mapping,
                            const KnowledgeBase& kb) const;

  /// Evaluates `mapping` over the borrowed `sources`. Safe to run
  /// concurrently on pool workers, over the same snapshots too.
  Result<MappingRows> Evaluate(const Mapping& mapping,
                               const SourceSnapshots& sources) const;

  /// The result relation of `rows`: named `mapping.result_predicate`,
  /// with the target schema's attribute names, rows in `rows`' order.
  static Result<Relation> ToRelation(const Mapping& mapping,
                                     const Schema& target,
                                     const MappingRows& rows);

  /// Executes several mappings and unions their results into one relation
  /// named `result_name` with the target schema's attributes.
  Result<Relation> ExecuteUnion(const std::vector<Mapping>& mappings,
                                const Schema& target, const KnowledgeBase& kb,
                                const std::string& result_name) const;

 private:
  /// Runs `mapping`'s rule over `db` and returns its result rows.
  Result<MappingRows> EvaluateIn(const Mapping& mapping, datalog::Database* db,
                                 datalog::Provenance* provenance) const;

  datalog::PlannerOptions planner_;
  datalog::SnapshotCache* cache_ = nullptr;
};

}  // namespace vada

#endif  // VADA_MAPPING_EXECUTOR_H_
