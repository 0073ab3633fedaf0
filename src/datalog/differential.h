#ifndef VADA_DATALOG_DIFFERENTIAL_H_
#define VADA_DATALOG_DIFFERENTIAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/stratify.h"

namespace vada::datalog {

/// Tuple-level changes to one predicate's base (EDB) facts.
struct DeltaRows {
  std::vector<Tuple> inserts;
  std::vector<Tuple> retracts;
};

/// One batch of base-fact changes, keyed by predicate.
using RelationDelta = std::map<std::string, DeltaRows>;

struct DifferentialOptions {
  /// Options for the full evaluations the maintainer still performs
  /// (initialization, per-stratum recomputation, full fallback).
  EvalOptions eval;
  /// ApplyDelta falls back to one full re-evaluation when a batch
  /// changes more than this fraction of the stored base facts
  /// (incremental bookkeeping would cost more than it saves). <= 0
  /// forces every batch down the full path.
  double max_delta_fraction = 0.25;
};

/// Counters describing differential maintenance (feed `vada_delta_*`).
struct DeltaStats {
  size_t applies = 0;            ///< ApplyDelta calls
  size_t full_fallbacks = 0;     ///< batches re-evaluated from scratch
  size_t strata_skipped = 0;     ///< strata with no changed inputs
  size_t strata_counting = 0;    ///< strata maintained by counting
  size_t strata_monotone = 0;    ///< strata continued semi-naively
  size_t strata_recomputed = 0;  ///< strata recomputed and diffed
  size_t facts_inserted = 0;     ///< net fact-presence gains applied
  size_t facts_retracted = 0;    ///< net fact-presence losses applied
  EvalStats eval;                ///< join work of the maintenance itself
};

/// Incremental Datalog maintenance (DESIGN.md §5k): materializes a
/// program's fixpoint once, then keeps it consistent under batches of
/// base-fact insertions and retractions for a fraction of the original
/// join work — the engine behind "what changed since version V".
///
///   DifferentialEvaluator diff(program);
///   diff.Prepare();
///   diff.Initialize(edb);                 // one full evaluation
///   diff.ApplyDelta({{"e0", {.inserts = {t}}}});   // pay-as-you-go
///   diff.database().facts("tc");          // maintained fixpoint
///
/// Per stratum, ApplyDelta picks the cheapest sound strategy:
///  * skip — no input of the stratum changed;
///  * counting — non-recursive strata without negation/aggregates keep
///    an exact derivation count per fact and sweep each rule once per
///    changed body occurrence (old/new delta decomposition), handling
///    inserts and retracts symmetrically; sweeps run on the evaluator's
///    own executor (Evaluator::Sweep), delta occurrence first;
///  * monotone — recursive positive strata under insert-only deltas
///    continue the semi-naive fixpoint from the insertions
///    (Evaluator::RunIncrement);
///  * recompute — strata with negation or aggregates, and recursive
///    strata hit by retracts, are re-evaluated in isolation from their
///    (maintained) inputs and diffed against the previous state.
/// Whole batches above DifferentialOptions::max_delta_fraction fall
/// back to one full re-evaluation. Every path yields the same fact
/// sets as evaluating the changed base from scratch (the 500-program
/// delta fuzz harness asserts this bit-for-bit, order-normalized).
///
/// Snapshots: each ApplyDelta publishes a fresh Database that borrows
/// all unchanged predicates from the previous snapshot (zero-copy,
/// datalog/database.h) and rebuilds only the changed ones, so holding
/// `snapshot()` across applies is cheap and safe.
class DifferentialEvaluator {
 public:
  explicit DifferentialEvaluator(Program program,
                                 DifferentialOptions options = {});
  ~DifferentialEvaluator();

  DifferentialEvaluator(const DifferentialEvaluator&) = delete;
  DifferentialEvaluator& operator=(const DifferentialEvaluator&) = delete;

  /// Validates, stratifies, classifies strata and prepares one evaluator
  /// per stratum. Must be called once before Initialize.
  Status Prepare();

  /// Evaluates the program over `edb` in full and records the base
  /// facts + derivation counts that later deltas are applied against.
  /// Callable again to re-seed from a new base.
  Status Initialize(const Database& edb, DeltaStats* stats = nullptr);

  /// Applies one batch of base-fact changes, updating the materialized
  /// fixpoint. Rows already present insert as no-ops, absent rows
  /// retract as no-ops; a row in both lists of one batch nets out.
  /// Pre-condition: Initialize() returned OK.
  Status ApplyDelta(const RelationDelta& delta, DeltaStats* stats = nullptr);

  /// The maintained fixpoint. Pre-condition: Initialize() returned OK.
  const Database& database() const { return *current_; }
  std::shared_ptr<const Database> snapshot() const { return current_; }

  /// Lifetime totals across Initialize/ApplyDelta calls.
  const DeltaStats& lifetime_stats() const { return lifetime_; }

  /// EXPLAIN surface: the per-stratum strategy decisions of the most
  /// recent ApplyDelta ("delta plan" vs "full plan"; DESIGN.md §5k).
  const std::string& last_plan() const { return last_plan_; }

 private:
  // -- per-fact maintenance state ------------------------------------
  using Row = std::vector<SymbolId>;
  struct FactInfo {
    bool base = false;    ///< present as a base (EDB) fact
    int64_t count = 0;    ///< derivation count (counting strata) or
                          ///< derived-presence marker (other strata)
    bool Present() const { return base || count > 0; }
  };
  struct PredState {
    size_t arity = 0;
    bool arity_set = false;
    /// Ordered map: deterministic iteration makes rebuilt stores and
    /// fallback re-evaluations reproducible.
    std::map<Row, FactInfo> rows;
  };
  struct PredDelta {
    std::vector<Row> inserts;
    std::vector<Row> retracts;
  };
  /// Pending presence change of one row: a derivation-count delta
  /// and/or a base-flag write, combined so presence flips once.
  struct RowChange {
    int64_t count_delta = 0;
    int base_set = -1;  // -1 unchanged, else 0/1
  };

  enum class StratumMode { kCounting, kMonotone, kComplex };
  struct StratumInfo {
    std::vector<std::string> preds;    // head predicates, sorted
    std::set<std::string> pred_set;
    std::set<std::string> input_preds;  // body preds outside the stratum
    StratumMode mode = StratumMode::kComplex;
    bool has_negation_or_aggregates = false;
    Program sub_program;               // this stratum's rules
    std::unique_ptr<Evaluator> sub_eval;
  };

  /// `stage` holds base-fact flips targeting this stratum's own head
  /// predicates (IDB facts fed directly from outside), keyed by
  /// predicate; `pending` accumulates the presence changes of every
  /// predicate processed so far this batch (inputs in, own preds out).
  using Stage = std::map<std::string, PredDelta>;
  Status ApplyCounting(StratumInfo* si, Database* next,
                       std::map<std::string, PredDelta>* pending,
                       const Stage* stage, DeltaStats* st);
  Status ApplyMonotone(StratumInfo* si, Database* next,
                       std::map<std::string, PredDelta>* pending,
                       const Stage* stage, DeltaStats* st);
  Status Recompute(StratumInfo* si, Database* next,
                   std::map<std::string, PredDelta>* pending,
                   const Stage* stage, DeltaStats* st);
  Status FullRebuild(DeltaStats* st);
  /// Reseeds derivation counts / presence markers from a freshly
  /// evaluated database (Initialize and the full-fallback path).
  Status RebuildDerivedState(const Database& db, EvalStats* st);
  /// Rebuilds `pred`'s store in `next` from the maintenance state
  /// (required when rows disappeared; plain COW inserts otherwise).
  void RebuildPredicate(Database* next, const std::string& pred);
  void ApplyRowChanges(const std::string& pred,
                       const std::map<Row, RowChange>& changes,
                       Database* next, PredDelta* out, DeltaStats* st);

  size_t BaseRowCount() const;

  Program program_;
  DifferentialOptions opts_;
  Stratification stratification_;
  std::vector<StratumInfo> strata_;
  std::map<std::string, size_t> stratum_of_;  // head pred -> strata_ index
  std::unique_ptr<Evaluator> full_eval_;
  std::map<std::string, PredState> state_;
  std::shared_ptr<const Database> current_;
  DeltaStats lifetime_;
  std::string last_plan_;
  bool prepared_ = false;
  bool initialized_ = false;
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_DIFFERENTIAL_H_
