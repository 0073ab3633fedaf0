#include "datalog/evaluator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "datalog/analysis/dataflow/optimizer.h"
#include "datalog/explain.h"
#include "datalog/symbol_table.h"
#include "obs/span.h"

namespace vada::datalog {

std::optional<int> CompareValues(const Value& a, const Value& b) {
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (da.has_value() && db.has_value()) {
    if (*da < *db) return -1;
    if (*da > *db) return 1;
    return 0;
  }
  if (a.type() != b.type()) return std::nullopt;
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

std::optional<Value> ApplyArith(ArithOp op, const Value& a, const Value& b) {
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (!da.has_value() || !db.has_value()) return std::nullopt;
  bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  switch (op) {
    case ArithOp::kAdd:
      return both_int ? Value::Int(a.int_value() + b.int_value())
                      : Value::Double(*da + *db);
    case ArithOp::kSub:
      return both_int ? Value::Int(a.int_value() - b.int_value())
                      : Value::Double(*da - *db);
    case ArithOp::kMul:
      return both_int ? Value::Int(a.int_value() * b.int_value())
                      : Value::Double(*da * *db);
    case ArithOp::kDiv:
      if (*db == 0.0) return std::nullopt;
      return Value::Double(*da / *db);
    case ArithOp::kNone:
      return a;
  }
  return std::nullopt;
}

namespace {

/// Truth of `a op b` under CompareValues semantics (incomparable values
/// satisfy only `!=`) — the comparison-literal semantics.
bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  std::optional<int> cmp = CompareValues(a, b);
  switch (op) {
    case CompareOp::kEq:
      return cmp.has_value() && *cmp == 0;
    case CompareOp::kNe:
      return !cmp.has_value() || *cmp != 0;
    case CompareOp::kLt:
      return cmp.has_value() && *cmp < 0;
    case CompareOp::kLe:
      return cmp.has_value() && *cmp <= 0;
    case CompareOp::kGt:
      return cmp.has_value() && *cmp > 0;
    case CompareOp::kGe:
      return cmp.has_value() && *cmp >= 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule compilation: variables become dense slots; literals are put into a
// bind-aware execution order once, not per tuple. Constants are interned
// once here, so the execution hot path never hashes a Value — join
// equality is uint32 symbol-id equality throughout (DESIGN.md §5j).
// Value-semantics operations (comparisons, arithmetic, aggregation) are
// the one place ids are materialized back into Values, because they need
// numeric coercion that id identity cannot express.
// ---------------------------------------------------------------------------

struct CompiledTerm {
  bool is_var = false;
  int slot = -1;            // when is_var
  Value constant;           // when !is_var
  SymbolId const_id = kNoSymbol;  // interned `constant` (when !is_var)
};

struct CompiledAtom {
  std::string predicate;
  std::vector<CompiledTerm> terms;
};

/// The per-row match plan of one positive atom, fixed at compile time.
/// Because execution follows the compiled order (atoms bind every
/// variable they mention, assignments always bind theirs), the static
/// bound/unbound split below equals the runtime binding state at literal
/// entry, so the inner candidate loop is branch-free over these lists:
/// pure id comparisons, then slot writes.
struct AtomMatchPlan {
  struct PosId {
    uint32_t pos;
    SymbolId id;
  };
  struct PosSlot {
    uint32_t pos;
    int slot;
  };
  struct PosPos {
    uint32_t pos;    // this column...
    uint32_t other;  // ...must equal this earlier column (repeated var)
  };
  std::vector<PosId> const_checks;    // column == interned constant
  std::vector<PosSlot> bound_checks;  // column == already-bound slot id
  std::vector<PosPos> self_checks;    // within-atom repeated variable
  std::vector<PosSlot> binds;         // first occurrence: bind slot
};

struct CompiledLiteral {
  Literal::Kind kind = Literal::Kind::kAtom;
  CompiledAtom atom;
  CompareOp compare_op = CompareOp::kEq;
  CompiledTerm lhs;
  CompiledTerm rhs;
  int assign_slot = -1;
  ArithOp arith_op = ArithOp::kNone;
  bool recursive = false;  // atom over a same-stratum predicate
  /// For positive atoms: the column positions that are ground when this
  /// literal starts executing — constants, plus variables bound by
  /// earlier literals of the execution order. Statically known because
  /// the order is fixed at compile time; this is the key set the
  /// composite index probe uses. Sorted ascending.
  std::vector<size_t> bound_positions;
  /// For positive atoms: the vectorized probe-loop plan (see above).
  AtomMatchPlan match;
  /// Position of this literal in the rule's *declared* body (the
  /// compiled body is in execution order) — EXPLAIN reports both.
  size_t body_index = 0;
  /// The planner's candidate estimate when it placed this literal
  /// (atoms under cost-based reordering; 0 otherwise).
  size_t estimated_cost = 0;
  /// Static cardinality prior that backed the estimate when the
  /// relation had no facts at compile time (0: runtime stats decided).
  size_t static_prior = 0;
};

struct AggSpec {
  size_t head_position;
  AggFunc func;
  int slot;  // slot of the aggregated variable
};

struct CompiledRule {
  CompiledAtom head;
  std::vector<AggSpec> aggregates;  // empty for normal rules
  std::vector<CompiledLiteral> body;
  std::vector<size_t> recursive_positions;  // body indexes of recursive atoms
  int num_slots = 0;
  std::string text;        // for error messages
  const Rule* source = nullptr;  // declared rule, for EXPLAIN rendering
};

class RuleCompiler {
 public:
  /// `db` supplies the cardinality estimates of cost-based reordering
  /// (may be null: falls back to the legacy bound-count heuristic).
  RuleCompiler(const std::set<std::string>& stratum_preds, const Database* db,
               const PlannerOptions& planner)
      : stratum_preds_(stratum_preds), db_(db), planner_(planner) {}

  CompiledRule Compile(const Rule& rule) {
    CompiledRule out;
    out.text = rule.ToString();
    out.source = &rule;

    // Execution order: the planner hoists builtins and negations as
    // early as their variables allow and orders positive atoms by
    // estimated selectivity (or, without `reorder`, by bound-term
    // count — the legacy heuristic).
    std::vector<LiteralPlan> plan;
    std::vector<size_t> order = PlanBodyOrder(rule, db_, planner_, &plan);

    // Compile in execution order, tracking which slots are bound when
    // each literal starts — that static set is exactly the runtime
    // binding state at literal entry, so it names the index key columns
    // and splits the match plan into checks vs. binds.
    std::set<int> bound_slots;
    for (size_t oi = 0; oi < order.size(); ++oi) {
      size_t body_index = order[oi];
      const Literal& l = rule.body[body_index];
      CompiledLiteral cl = CompileLiteral(l);
      cl.body_index = body_index;
      cl.estimated_cost = plan[oi].estimated_cost;
      cl.static_prior = plan[oi].static_prior;
      if (cl.kind == Literal::Kind::kAtom) {
        std::map<int, uint32_t> first_pos;  // slot -> binding column
        for (size_t i = 0; i < cl.atom.terms.size(); ++i) {
          const CompiledTerm& t = cl.atom.terms[i];
          uint32_t pos = static_cast<uint32_t>(i);
          if (!t.is_var) {
            cl.bound_positions.push_back(i);
            cl.match.const_checks.push_back({pos, t.const_id});
          } else if (bound_slots.count(t.slot) > 0) {
            cl.bound_positions.push_back(i);
            cl.match.bound_checks.push_back({pos, t.slot});
          } else if (auto fit = first_pos.find(t.slot);
                     fit != first_pos.end()) {
            cl.match.self_checks.push_back({pos, fit->second});
          } else {
            first_pos.emplace(t.slot, pos);
            cl.match.binds.push_back({pos, t.slot});
          }
        }
      }
      switch (cl.kind) {
        case Literal::Kind::kAtom:
          for (const CompiledTerm& t : cl.atom.terms) {
            if (t.is_var) bound_slots.insert(t.slot);
          }
          break;
        case Literal::Kind::kAssignment:
          bound_slots.insert(cl.assign_slot);
          break;
        case Literal::Kind::kNegatedAtom:
        case Literal::Kind::kComparison:
          break;
      }
      out.body.push_back(std::move(cl));
      if (out.body.back().kind == Literal::Kind::kAtom &&
          out.body.back().recursive) {
        out.recursive_positions.push_back(out.body.size() - 1);
      }
    }

    // Head (aggregates recorded separately; their head slot stays -1 and
    // is filled from the aggregation result).
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      const Term& t = rule.head.terms[i];
      if (t.is_aggregate()) {
        out.aggregates.push_back(
            AggSpec{i, t.agg_func(), SlotOf(t.var())});
        CompiledTerm ct;
        ct.is_var = false;
        ct.constant = Value::Null();  // placeholder, overwritten per group
        ct.const_id = SymbolTable::Global().Intern(ct.constant);
        out.head.terms.push_back(ct);
      } else {
        out.head.terms.push_back(CompileTerm(t));
      }
    }
    out.head.predicate = rule.head.predicate;
    out.num_slots = static_cast<int>(slots_.size());
    return out;
  }

 private:
  int SlotOf(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(slots_.size());
    slots_.emplace(var, slot);
    return slot;
  }

  CompiledTerm CompileTerm(const Term& t) {
    CompiledTerm ct;
    if (t.is_variable()) {
      ct.is_var = true;
      ct.slot = SlotOf(t.var());
    } else {
      ct.is_var = false;
      ct.constant = t.value();
      // Interning here (not per probe) is what keeps constants off the
      // hot path; the id is canonical, so if the constant matches any
      // stored fact they share this id.
      ct.const_id = SymbolTable::Global().Intern(ct.constant);
    }
    return ct;
  }

  CompiledLiteral CompileLiteral(const Literal& l) {
    CompiledLiteral cl;
    cl.kind = l.kind;
    switch (l.kind) {
      case Literal::Kind::kAtom:
      case Literal::Kind::kNegatedAtom:
        cl.atom.predicate = l.atom.predicate;
        for (const Term& t : l.atom.terms) {
          cl.atom.terms.push_back(CompileTerm(t));
        }
        cl.recursive = stratum_preds_.count(l.atom.predicate) > 0 &&
                       l.kind == Literal::Kind::kAtom;
        break;
      case Literal::Kind::kComparison:
        cl.compare_op = l.compare_op;
        cl.lhs = CompileTerm(l.lhs);
        cl.rhs = CompileTerm(l.rhs);
        break;
      case Literal::Kind::kAssignment:
        cl.assign_slot = SlotOf(l.assign_var);
        cl.arith_op = l.arith_op;
        cl.lhs = CompileTerm(l.lhs);
        cl.rhs = CompileTerm(l.rhs);
        break;
    }
    return cl;
  }

  const std::set<std::string>& stratum_preds_;
  const Database* db_;
  PlannerOptions planner_;
  std::map<std::string, int> slots_;
};

// ---------------------------------------------------------------------------
// Rule execution.
// ---------------------------------------------------------------------------

/// Mutable binding environment with a trail for backtracking. Slots hold
/// symbol ids, never Values — materialization happens only in the
/// Value-semantics literals (comparisons, arithmetic) and at the
/// provenance/aggregation boundary.
class BindingEnv {
 public:
  explicit BindingEnv(int num_slots)
      : ids_(num_slots, kNoSymbol), bound_(num_slots, 0) {}

  bool is_bound(int slot) const { return bound_[slot] != 0; }
  SymbolId id(int slot) const { return ids_[slot]; }

  void Bind(int slot, SymbolId id) {
    ids_[slot] = id;
    bound_[slot] = 1;
    trail_.push_back(slot);
  }

  size_t Mark() const { return trail_.size(); }

  void UnwindTo(size_t mark) {
    while (trail_.size() > mark) {
      bound_[trail_.back()] = 0;
      trail_.pop_back();
    }
  }

 private:
  std::vector<SymbolId> ids_;
  std::vector<unsigned char> bound_;
  std::vector<int> trail_;
};

/// Join-work counters of one rule evaluation; fields map 1:1 onto the
/// EvalStats join counters (scan_probes -> join_probes).
struct JoinWork {
  size_t scan_probes = 0;
  size_t index_probes = 0;
  size_t index_candidates = 0;
  size_t index_builds = 0;

  void Add(const JoinWork& o) {
    scan_probes += o.scan_probes;
    index_probes += o.index_probes;
    index_candidates += o.index_candidates;
    index_builds += o.index_builds;
  }

  void MergeInto(EvalStats* st) const {
    st->join_probes += scan_probes;
    st->index_probes += index_probes;
    st->index_candidates += index_candidates;
    st->index_builds += index_builds;
  }
};

/// Evaluates one compiled rule body, invoking `on_solution` for every
/// complete binding. `sources[i]` is the database compiled body literal
/// i reads (atoms range over it, negations check it): semi-naive points
/// one atom at the round's delta (DeltaSources).
class RuleExecutor {
 public:
  RuleExecutor(const CompiledRule& rule, std::vector<const Database*> sources,
               const PlannerOptions& planner)
      : rule_(rule),
        sources_(std::move(sources)),
        planner_(planner),
        table_(SymbolTable::Global()),
        lit_index_(rule.body.size()),
        env_(rule.num_slots) {}

  template <typename Fn>
  void ForEachSolution(Fn&& on_solution) {
    Descend(0, on_solution);
  }

  BindingEnv& env() { return env_; }

  /// EXPLAIN ANALYZE hookup: when set (one slot per compiled body
  /// literal), probe/candidate counters are additionally recorded per
  /// literal — at the same sites as work_, so per-literal totals
  /// reconcile with EvalStats exactly — and each literal accumulates
  /// inclusive wall time. Null (the default): zero extra work.
  void set_lit_stats(std::vector<LiteralRuntime>* lit_stats) {
    lit_stats_ = lit_stats;
  }

  /// Join-work counters of this execution (see JoinWork).
  const JoinWork& work() const { return work_; }

  /// Ground instances of the rule's positive body atoms under the current
  /// (complete) bindings — the premises of the derivation just emitted.
  /// Materializes Values: provenance is a boundary consumer.
  std::vector<std::pair<std::string, Tuple>> GroundPositiveAtoms() const {
    std::vector<std::pair<std::string, Tuple>> out;
    for (const CompiledLiteral& lit : rule_.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      std::vector<Value> values;
      values.reserve(lit.atom.terms.size());
      bool ok = true;
      for (const CompiledTerm& t : lit.atom.terms) {
        const Value* v = TermValue(t);
        if (v == nullptr) {
          ok = false;
          break;
        }
        values.push_back(*v);
      }
      if (ok) out.push_back({lit.atom.predicate, Tuple(std::move(values))});
    }
    return out;
  }

 private:
  /// The term's symbol id under the current bindings. Pre-condition:
  /// the term is ground here (constant, or a slot the compiled order
  /// proved bound) — callers only ask for bound_positions terms.
  SymbolId TermId(const CompiledTerm& t) const {
    return t.is_var ? env_.id(t.slot) : t.const_id;
  }

  /// The term's Value under the current bindings, or nullptr when an
  /// unbound variable (unsafe literal; validated away — fail closed).
  /// This is the id -> Value materialization point for the
  /// Value-semantics literals.
  const Value* TermValue(const CompiledTerm& t) const {
    if (!t.is_var) return &t.constant;
    if (!env_.is_bound(t.slot)) return nullptr;
    return &table_.value(env_.id(t.slot));
  }

  template <typename Fn>
  void Descend(size_t index, Fn&& on_solution) {
    if (index == rule_.body.size()) {
      on_solution(env_);
      return;
    }
    if (lit_stats_ == nullptr) {
      DescendStep(index, on_solution);
      return;
    }
    // ANALYZE: inclusive wall time per literal (this literal plus
    // everything nested inside it in the join tree).
    auto start = std::chrono::steady_clock::now();
    DescendStep(index, on_solution);
    (*lit_stats_)[index].time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  template <typename Fn>
  void DescendStep(size_t index, Fn&& on_solution) {
    const CompiledLiteral& lit = rule_.body[index];
    switch (lit.kind) {
      case Literal::Kind::kAtom:
        EvalAtom(lit, *sources_[index], index, on_solution);
        return;
      case Literal::Kind::kNegatedAtom: {
        // Pure id containment check: every ground term resolves to an id
        // (constants were interned at compile; a value nobody interned
        // cannot be stored, so equal Values always share an id here).
        SymbolId local[8];
        std::vector<SymbolId> heap;
        SymbolId* ids = local;
        size_t n = lit.atom.terms.size();
        if (n > 8) {
          heap.resize(n);
          ids = heap.data();
        }
        for (size_t i = 0; i < n; ++i) {
          const CompiledTerm& t = lit.atom.terms[i];
          if (t.is_var && !env_.is_bound(t.slot)) {
            return;  // unsafe (validated away); fail closed
          }
          ids[i] = TermId(t);
        }
        Database::View v = sources_[index]->view(lit.atom.predicate);
        bool contained = v.valid() && v.arity() == n && v.ContainsIds(ids);
        if (!contained) Descend(index + 1, on_solution);
        return;
      }
      case Literal::Kind::kComparison: {
        const Value* a = TermValue(lit.lhs);
        const Value* b = TermValue(lit.rhs);
        if (a == nullptr || b == nullptr) return;
        if (EvalCompare(lit.compare_op, *a, *b)) {
          Descend(index + 1, on_solution);
        }
        return;
      }
      case Literal::Kind::kAssignment: {
        const Value* a = TermValue(lit.lhs);
        if (a == nullptr) return;
        std::optional<Value> result;
        if (lit.arith_op == ArithOp::kNone) {
          result = *a;
        } else {
          const Value* b = TermValue(lit.rhs);
          if (b == nullptr) return;
          result = ApplyArith(lit.arith_op, *a, *b);
        }
        if (!result.has_value()) return;  // arithmetic failure: literal false
        if (env_.is_bound(lit.assign_slot)) {
          // Numeric coercion (Int(3) == Double(3.0)) — must compare
          // Values, not ids.
          std::optional<int> cmp =
              CompareValues(table_.value(env_.id(lit.assign_slot)), *result);
          if (cmp.has_value() && *cmp == 0) Descend(index + 1, on_solution);
          return;
        }
        size_t mark = env_.Mark();
        // Computed values (sums, concatenations of ids never seen
        // before) enter the dictionary here — the only intern site on
        // the execution path.
        env_.Bind(lit.assign_slot, table_.Intern(*result));
        Descend(index + 1, on_solution);
        env_.UnwindTo(mark);
        return;
      }
    }
  }

  /// Resolved candidate list for one positive atom under the planner
  /// options. `list == nullptr` means "scan all rows"; `miss` means the
  /// bound prefix matched nothing (zero candidates, distinct from an
  /// empty scan so callers can skip range bookkeeping).
  struct Candidates {
    Database::View view;
    const std::vector<uint32_t>* list = nullptr;
    size_t count = 0;
    bool via_index = false;
    bool miss = false;
  };

  /// Chooses how the atom at body position `index` enumerates facts:
  /// composite bound-prefix index when enabled and the relation is large
  /// enough, single-column seek on the first bound position otherwise,
  /// full scan when nothing is bound or indexes are disabled (the
  /// differential oracle). `lit.bound_positions` is static, but it
  /// equals the runtime binding state here because execution follows
  /// the compiled order: atoms bind every variable they mention and
  /// assignments always bind theirs.
  Candidates SelectCandidates(const CompiledLiteral& lit, size_t index,
                              const Database& source) {
    Candidates out;
    out.view = source.view(lit.atom.predicate);
    size_t total = out.view.valid() ? out.view.rows() : 0;
    if (lit.bound_positions.empty() || !planner_.indexes) {
      out.count = total;  // full scan (also the indexes=false oracle)
      return out;
    }
    LitIndex& cached = lit_index_[index];
    if (cached.state == LitIndex::kUnknown) {
      cached.state = LitIndex::kUnavailable;
      if (total >= planner_.min_index_size) {
        cached.index = source.EnsureBoundIndex(
            lit.atom.predicate, lit.bound_positions, &work_.index_builds);
        if (cached.index != nullptr) cached.state = LitIndex::kReady;
      }
    }
    if (cached.state == LitIndex::kReady) {
      out.via_index = true;
      // The probe key is a handful of uint32s — hashed without touching
      // a single Value (the point of the columnar layout, DESIGN.md §5j).
      key_scratch_.clear();
      for (size_t pos : lit.bound_positions) {
        key_scratch_.push_back(TermId(lit.atom.terms[pos]));
      }
      auto it = cached.index->buckets.find(key_scratch_);
      if (it == cached.index->buckets.end()) {
        out.miss = true;
        return out;
      }
      out.list = &it->second;
      out.count = out.list->size();
      return out;
    }
    // Small relation: the eager single-column index on the first bound
    // position is cheaper than building a composite index.
    size_t pos = lit.bound_positions[0];
    out.list = out.view.valid()
                   ? out.view.LookupId(pos, TermId(lit.atom.terms[pos]))
                   : nullptr;
    if (out.list == nullptr) {
      out.miss = true;
      return out;
    }
    out.count = out.list->size();
    return out;
  }

  template <typename Fn>
  void EvalAtom(const CompiledLiteral& lit, const Database& source,
                size_t index, Fn&& on_solution) {
    Candidates cand = SelectCandidates(lit, index, source);
    if (cand.via_index) {
      ++work_.index_probes;
      if (lit_stats_ != nullptr) ++(*lit_stats_)[index].index_probes;
    }
    if (cand.miss) return;  // no fact matches the bound prefix
    if (cand.via_index) {
      work_.index_candidates += cand.count;
      if (lit_stats_ != nullptr) {
        (*lit_stats_)[index].index_candidates += cand.count;
      }
    } else {
      work_.scan_probes += cand.count;
      if (lit_stats_ != nullptr) (*lit_stats_)[index].scan_probes += cand.count;
    }
    if (cand.count == 0 || !cand.view.valid()) return;
    // All rows of a store share its arity, so the row engine's per-fact
    // arity test hoists to one check per call (candidates above were
    // already counted, matching the row engine's bookkeeping).
    size_t n = lit.atom.terms.size();
    if (cand.view.arity() != n) return;
    // The vectorized probe loop: raw column pointers, id comparisons
    // only. No Value is constructed, hashed or compared anywhere below.
    const AtomMatchPlan& plan = lit.match;
    for (size_t ci = 0; ci < cand.count; ++ci) {
      uint32_t row = (cand.list != nullptr) ? (*cand.list)[ci]
                                            : static_cast<uint32_t>(ci);
      bool ok = true;
      for (const AtomMatchPlan::PosId& c : plan.const_checks) {
        if (cand.view.column(c.pos)[row] != c.id) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const AtomMatchPlan::PosSlot& c : plan.bound_checks) {
          if (cand.view.column(c.pos)[row] != env_.id(c.slot)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        for (const AtomMatchPlan::PosPos& c : plan.self_checks) {
          if (cand.view.column(c.pos)[row] != cand.view.column(c.other)[row]) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      size_t mark = env_.Mark();
      for (const AtomMatchPlan::PosSlot& b : plan.binds) {
        env_.Bind(b.slot, cand.view.column(b.pos)[row]);
      }
      Descend(index + 1, on_solution);
      env_.UnwindTo(mark);
    }
  }

  /// Per-literal memo of the composite-index decision, so the index map
  /// lookup (and its mutex) is paid once per execution, not per probe.
  struct LitIndex {
    enum State { kUnknown = 0, kUnavailable, kReady };
    State state = kUnknown;
    const BoundIndex* index = nullptr;
  };

  const CompiledRule& rule_;
  std::vector<const Database*> sources_;
  PlannerOptions planner_;
  SymbolTable& table_;
  std::vector<LitIndex> lit_index_;
  BindingEnv env_;
  JoinWork work_;
  std::vector<SymbolId> key_scratch_;  // composite probe key, reused
  std::vector<LiteralRuntime>* lit_stats_ = nullptr;
};

constexpr size_t kNoDelta = static_cast<size_t>(-1);

/// Executor sources where every literal reads `db` except the atom at
/// compiled position `delta_position` (kNoDelta: none), which ranges
/// over `delta` — the semi-naive restriction.
std::vector<const Database*> DeltaSources(const CompiledRule& rule,
                                          const Database& db,
                                          const Database* delta,
                                          size_t delta_position) {
  std::vector<const Database*> sources(rule.body.size(), &db);
  if (delta != nullptr && delta_position < sources.size()) {
    sources[delta_position] = delta;
  }
  return sources;
}

/// Derived head rows of one rule evaluation: a flat row-major id buffer
/// (rule.head.terms.size() ids per row) plus an explicit row count — the
/// count cannot be derived from the buffer for zero-arity heads like
/// `ready()`. Derived facts stay ids end to end: they re-enter the
/// database through InsertIds without ever materializing a Value.
struct ProducedRows {
  std::vector<SymbolId> ids;
  size_t rows = 0;
};

void AppendHeadIds(const CompiledRule& rule, const BindingEnv& env,
                   ProducedRows* out) {
  for (const CompiledTerm& t : rule.head.terms) {
    out->ids.push_back(t.is_var ? env.id(t.slot) : t.const_id);
  }
  ++out->rows;
}

/// Materializes one flat id row into a Tuple (boundary consumers only:
/// provenance records).
Tuple IdsToTuple(const SymbolId* ids, size_t n) {
  const SymbolTable& table = SymbolTable::Global();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(table.value(ids[i]));
  return Tuple(std::move(values));
}

/// Id-level Contains against owned-or-borrowed storage (the provenance
/// duplicate check; mirrors Database::Contains minus the Value->id
/// translation, which the ids already are).
bool DbContainsIds(const Database& db, const std::string& predicate,
                   const SymbolId* ids, size_t n) {
  Database::View v = db.view(predicate);
  return v.valid() && v.arity() == n && v.ContainsIds(ids);
}

/// Evaluates a non-aggregate rule and collects candidate head rows as
/// flat ids (head-arity ids per solution). When `premises_out` is
/// non-null it receives, parallel to the produced rows, the ground
/// positive body atoms of each solution (for provenance).
void EvaluateRule(
    const CompiledRule& rule, const Database& db, const Database* delta,
    size_t delta_position, const PlannerOptions& planner, ProducedRows* out,
    std::vector<std::vector<std::pair<std::string, Tuple>>>* premises_out =
        nullptr,
    JoinWork* work = nullptr,
    std::vector<LiteralRuntime>* lit_stats = nullptr) {
  RuleExecutor exec(rule, DeltaSources(rule, db, delta, delta_position),
                    planner);
  exec.set_lit_stats(lit_stats);
  exec.ForEachSolution([&](const BindingEnv& env) {
    AppendHeadIds(rule, env, out);
    if (premises_out != nullptr) {
      premises_out->push_back(exec.GroundPositiveAtoms());
    }
  });
  if (work != nullptr) work->Add(exec.work());
}

/// Evaluates an aggregate rule: groups body solutions by the non-aggregate
/// head terms; each aggregate ranges over the *distinct values* its
/// variable takes within the group (set semantics). Grouping and
/// aggregation materialize Values — min/max/sum need Value ordering and
/// arithmetic, which id identity cannot express.
void EvaluateAggregateRule(const CompiledRule& rule, const Database& db,
                           const PlannerOptions& planner,
                           std::vector<Tuple>* out,
                           JoinWork* work = nullptr,
                           std::vector<LiteralRuntime>* lit_stats = nullptr) {
  struct GroupState {
    std::vector<std::set<Value>> distinct;  // one per aggregate
  };
  std::map<Tuple, GroupState> groups;
  const SymbolTable& table = SymbolTable::Global();

  RuleExecutor exec(rule, DeltaSources(rule, db, nullptr, kNoDelta), planner);
  exec.set_lit_stats(lit_stats);
  exec.ForEachSolution([&](const BindingEnv& env) {
    std::vector<Value> key;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      bool is_agg = false;
      for (const AggSpec& spec : rule.aggregates) {
        if (spec.head_position == i) {
          is_agg = true;
          break;
        }
      }
      if (is_agg) continue;
      const CompiledTerm& t = rule.head.terms[i];
      key.push_back(t.is_var ? table.value(env.id(t.slot)) : t.constant);
    }
    GroupState& state = groups[Tuple(std::move(key))];
    if (state.distinct.empty()) state.distinct.resize(rule.aggregates.size());
    for (size_t a = 0; a < rule.aggregates.size(); ++a) {
      state.distinct[a].insert(table.value(env.id(rule.aggregates[a].slot)));
    }
  });

  if (work != nullptr) work->Add(exec.work());

  for (const auto& [key, state] : groups) {
    std::vector<Value> values(rule.head.terms.size());
    size_t key_index = 0;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      bool is_agg = false;
      for (size_t a = 0; a < rule.aggregates.size(); ++a) {
        if (rule.aggregates[a].head_position == i) {
          const std::set<Value>& vals = state.distinct[a];
          switch (rule.aggregates[a].func) {
            case AggFunc::kCount:
              values[i] = Value::Int(static_cast<int64_t>(vals.size()));
              break;
            case AggFunc::kMin:
              values[i] = vals.empty() ? Value::Null() : *vals.begin();
              break;
            case AggFunc::kMax:
              values[i] = vals.empty() ? Value::Null() : *vals.rbegin();
              break;
            case AggFunc::kSum:
            case AggFunc::kAvg: {
              double sum = 0.0;
              bool all_int = true;
              size_t n = 0;
              for (const Value& v : vals) {
                std::optional<double> d = v.AsDouble();
                if (!d.has_value()) continue;
                if (v.type() != ValueType::kInt) all_int = false;
                sum += *d;
                ++n;
              }
              if (rule.aggregates[a].func == AggFunc::kAvg) {
                values[i] = (n == 0) ? Value::Null() : Value::Double(sum / n);
              } else {
                values[i] = all_int ? Value::Int(static_cast<int64_t>(sum))
                                    : Value::Double(sum);
              }
              break;
            }
          }
          is_agg = true;
          break;
        }
      }
      if (!is_agg) {
        values[i] = key.at(key_index++);
      }
    }
    out->push_back(Tuple(std::move(values)));
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN support (datalog/explain.h). Only materialized when a caller
// asks for a plan; Run() never touches any of this.
// ---------------------------------------------------------------------------

/// Predicts the access path SelectCandidates will choose for `lit`
/// against `db` (the stratum-start state). Delta-restricted recursive
/// occurrences resolve against the round's delta at run time and may
/// differ; ANALYZE's actual counters capture that.
std::string PredictAccess(const CompiledLiteral& lit, const Database* db,
                          const PlannerOptions& planner) {
  switch (lit.kind) {
    case Literal::Kind::kAtom:
      if (lit.bound_positions.empty() || !planner.indexes) return "scan";
      if (db != nullptr &&
          db->FactCount(lit.atom.predicate) >= planner.min_index_size) {
        return "index";
      }
      return "seek";
    case Literal::Kind::kNegatedAtom:
      return "check";
    case Literal::Kind::kComparison:
    case Literal::Kind::kAssignment:
      return "filter";
  }
  return "?";
}

const char* LiteralKindName(Literal::Kind kind) {
  switch (kind) {
    case Literal::Kind::kAtom:
      return "atom";
    case Literal::Kind::kNegatedAtom:
      return "negation";
    case Literal::Kind::kComparison:
      return "comparison";
    case Literal::Kind::kAssignment:
      return "assignment";
  }
  return "?";
}

RuleExplain BuildRuleExplain(const CompiledRule& rule, const Database* db,
                             const PlannerOptions& planner) {
  RuleExplain out;
  out.text = rule.text;
  out.aggregate = !rule.aggregates.empty();
  out.literals.reserve(rule.body.size());
  for (const CompiledLiteral& lit : rule.body) {
    LiteralExplain le;
    le.body_index = lit.body_index;
    if (rule.source != nullptr && lit.body_index < rule.source->body.size()) {
      le.text = rule.source->body[lit.body_index].ToString();
    }
    le.kind = LiteralKindName(lit.kind);
    le.bound_positions = lit.bound_positions;
    le.estimated_cost = lit.estimated_cost;
    le.static_prior = lit.static_prior;
    le.access = PredictAccess(lit, db, planner);
    out.literals.push_back(std::move(le));
  }
  return out;
}

}  // namespace

Evaluator::Evaluator(Program program, EvalOptions options)
    : program_(std::move(program)), options_(options) {}

Status Evaluator::Prepare() {
  VADA_RETURN_IF_ERROR(program_.Validate());
  Result<Stratification> strat = Stratify(program_);
  if (!strat.ok()) return strat.status();
  stratification_ = std::move(strat).value();
  prepared_ = true;
  return Status::OK();
}

Status Evaluator::Run(Database* db, EvalStats* stats,
                      Provenance* provenance) {
  return RunInternal(db, stats, provenance, nullptr);
}

Status Evaluator::Explain(Database* db, PlanExplain* out, bool analyze,
                          EvalStats* stats) {
  if (!prepared_) {
    return Status::FailedPrecondition("Evaluator::Prepare() was not called");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("Explain requires a PlanExplain output");
  }
  out->strata.clear();
  out->analyzed = analyze;
  if (analyze) return RunInternal(db, stats, nullptr, out);

  // Compile-only pass: plan every stratum against the database as-is,
  // mirroring RunInternal's aggregate-rules-first ordering so EXPLAIN
  // and EXPLAIN ANALYZE render rules in the same sequence.
  for (const std::vector<std::string>& stratum : stratification_.strata) {
    std::set<std::string> stratum_preds(stratum.begin(), stratum.end());
    StratumExplain sx;
    sx.predicates = stratum;
    std::vector<RuleExplain> normal;
    for (const Rule& r : program_.rules) {
      if (stratum_preds.count(r.head.predicate) == 0) continue;
      RuleCompiler compiler(stratum_preds, db, options_.planner);
      CompiledRule cr = compiler.Compile(r);
      RuleExplain rex = BuildRuleExplain(cr, db, options_.planner);
      if (rex.aggregate) {
        sx.rules.push_back(std::move(rex));
      } else {
        normal.push_back(std::move(rex));
      }
    }
    for (RuleExplain& rex : normal) sx.rules.push_back(std::move(rex));
    out->strata.push_back(std::move(sx));
  }
  return Status::OK();
}

Status Evaluator::RunInternal(Database* db, EvalStats* stats,
                              Provenance* provenance, PlanExplain* explain) {
  if (!prepared_) {
    return Status::FailedPrecondition("Evaluator::Prepare() was not called");
  }
  EvalStats local_stats;
  EvalStats* st = (stats != nullptr) ? stats : &local_stats;
  obs::Histogram* stratum_hist =
      options_.metrics == nullptr
          ? nullptr
          : options_.metrics->GetHistogram(
                "vada_datalog_stratum_seconds",
                "Wall time per stratum fixpoint",
                obs::Histogram::DefaultLatencyBucketsSeconds());

  for (const std::vector<std::string>& stratum : stratification_.strata) {
    obs::ScopedSpan stratum_span(nullptr, stratum_hist, "stratum");
    std::set<std::string> stratum_preds(stratum.begin(), stratum.end());

    // Compile this stratum's rules.
    std::vector<CompiledRule> normal_rules;
    std::vector<CompiledRule> aggregate_rules;
    for (const Rule& r : program_.rules) {
      if (stratum_preds.count(r.head.predicate) == 0) continue;
      RuleCompiler compiler(stratum_preds, db, options_.planner);
      CompiledRule cr = compiler.Compile(r);
      if (cr.aggregates.empty()) {
        normal_rules.push_back(std::move(cr));
      } else {
        aggregate_rules.push_back(std::move(cr));
      }
    }

    // EXPLAIN ANALYZE bookkeeping: one RuleExplain per compiled rule,
    // aggregates first to match execution order. The pointers stay
    // valid because sx.rules is fully reserved before any is taken.
    std::vector<RuleExplain*> agg_rex(aggregate_rules.size(), nullptr);
    std::vector<RuleExplain*> normal_rex(normal_rules.size(), nullptr);
    if (explain != nullptr) {
      explain->strata.emplace_back();
      StratumExplain& sx = explain->strata.back();
      sx.predicates = stratum;
      sx.rules.reserve(aggregate_rules.size() + normal_rules.size());
      for (size_t i = 0; i < aggregate_rules.size(); ++i) {
        sx.rules.push_back(
            BuildRuleExplain(aggregate_rules[i], db, options_.planner));
        agg_rex[i] = &sx.rules.back();
      }
      for (size_t i = 0; i < normal_rules.size(); ++i) {
        sx.rules.push_back(
            BuildRuleExplain(normal_rules[i], db, options_.planner));
        normal_rex[i] = &sx.rules.back();
      }
    }

    // Aggregate rules first: stratification guarantees their bodies are
    // complete (all body predicates lie in strictly lower strata).
    for (size_t ri = 0; ri < aggregate_rules.size(); ++ri) {
      const CompiledRule& rule = aggregate_rules[ri];
      RuleExplain* rex = agg_rex[ri];
      ++st->rule_applications;
      if (rex != nullptr) ++rex->applications;
      std::vector<Tuple> produced;
      JoinWork agg_work;
      std::vector<LiteralRuntime> lit_rt;
      if (rex != nullptr) lit_rt.resize(rule.body.size());
      EvaluateAggregateRule(rule, *db, options_.planner, &produced, &agg_work,
                            rex != nullptr && !lit_rt.empty() ? &lit_rt
                                                              : nullptr);
      agg_work.MergeInto(st);
      if (rex != nullptr) {
        for (size_t i = 0; i < lit_rt.size(); ++i) {
          rex->literals[i].actual.Add(lit_rt[i]);
        }
      }
      for (Tuple& t : produced) {
        if (provenance != nullptr && !db->Contains(rule.head.predicate, t)) {
          // Aggregates summarise whole groups; record the rule alone.
          provenance->Record(rule.head.predicate, t, Derivation{rule.text, {}});
        }
        if (db->Insert(rule.head.predicate, t)) {
          ++st->facts_derived;
          if (rex != nullptr) ++rex->facts_derived;
        }
      }
    }

    if (normal_rules.empty()) continue;

    if (!options_.semi_naive) {
      // Naive fixpoint: re-evaluate everything until no new facts.
      for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
        ++st->iterations;
        bool any_new = false;
        for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
          const CompiledRule& rule = normal_rules[ri];
          RuleExplain* rex = normal_rex[ri];
          ++st->rule_applications;
          if (rex != nullptr) ++rex->applications;
          ProducedRows produced;
          std::vector<std::vector<std::pair<std::string, Tuple>>> premises;
          JoinWork naive_work;
          std::vector<LiteralRuntime> lit_rt;
          if (rex != nullptr) lit_rt.resize(rule.body.size());
          EvaluateRule(rule, *db, nullptr, kNoDelta, options_.planner,
                       &produced,
                       provenance != nullptr ? &premises : nullptr,
                       &naive_work,
                       rex != nullptr && !lit_rt.empty() ? &lit_rt : nullptr);
          naive_work.MergeInto(st);
          if (rex != nullptr) {
            for (size_t i = 0; i < lit_rt.size(); ++i) {
              rex->literals[i].actual.Add(lit_rt[i]);
            }
          }
          size_t head_arity = rule.head.terms.size();
          for (size_t i = 0; i < produced.rows; ++i) {
            const SymbolId* row = produced.ids.data() + i * head_arity;
            if (provenance != nullptr &&
                !DbContainsIds(*db, rule.head.predicate, row, head_arity)) {
              provenance->Record(rule.head.predicate,
                                 IdsToTuple(row, head_arity),
                                 Derivation{rule.text, premises[i]});
            }
            if (db->InsertIds(rule.head.predicate, row, head_arity)) {
              ++st->facts_derived;
              any_new = true;
              if (rex != nullptr) ++rex->facts_derived;
            }
          }
        }
        if (!any_new) break;
        if (iter + 1 == options_.max_iterations) {
          return Status::ResourceExhausted(
              "naive evaluation exceeded max_iterations");
        }
      }
      continue;
    }

    // Semi-naive with batch rounds: round 0 evaluates every rule in
    // full; later rounds evaluate only recursive rules, once per
    // recursive occurrence with that occurrence restricted to the
    // previous round's delta. Every task of a round reads the same
    // round-start state and results are merged in fixed task order, so
    // a rule never sees facts derived earlier in its own round.
    struct RuleTask {
      const CompiledRule* rule = nullptr;
      RuleExplain* rex = nullptr;  // EXPLAIN ANALYZE target, else null
      size_t delta_position = kNoDelta;
      ProducedRows produced;
      std::vector<std::vector<std::pair<std::string, Tuple>>> premises;
      JoinWork work;
      std::vector<LiteralRuntime> lit_stats;  // filled iff rex != nullptr
    };

    auto add_task = [&](const CompiledRule& rule, RuleExplain* rex,
                        size_t delta_position, std::vector<RuleTask>* tasks) {
      ++st->rule_applications;
      if (rex != nullptr) ++rex->applications;
      RuleTask& task = tasks->emplace_back();
      task.rule = &rule;
      task.rex = rex;
      task.delta_position = delta_position;
    };

    auto run_tasks = [&](std::vector<RuleTask>* tasks, const Database* delta) {
      for (RuleTask& task : *tasks) {
        if (task.rex != nullptr) task.lit_stats.resize(task.rule->body.size());
        EvaluateRule(*task.rule, *db, delta, task.delta_position,
                     options_.planner, &task.produced,
                     provenance != nullptr ? &task.premises : nullptr,
                     &task.work,
                     task.lit_stats.empty() ? nullptr : &task.lit_stats);
      }
    };

    auto merge_tasks = [&](std::vector<RuleTask>* tasks,
                           Database* delta_out) {
      for (RuleTask& task : *tasks) {
        task.work.MergeInto(st);
        if (task.rex != nullptr) {
          for (size_t i = 0; i < task.lit_stats.size(); ++i) {
            task.rex->literals[i].actual.Add(task.lit_stats[i]);
          }
        }
        const CompiledRule& rule = *task.rule;
        size_t head_arity = rule.head.terms.size();
        for (size_t i = 0; i < task.produced.rows; ++i) {
          const SymbolId* row = task.produced.ids.data() + i * head_arity;
          if (provenance != nullptr &&
              !DbContainsIds(*db, rule.head.predicate, row, head_arity)) {
            provenance->Record(rule.head.predicate,
                               IdsToTuple(row, head_arity),
                               Derivation{rule.text, task.premises[i]});
          }
          if (db->InsertIds(rule.head.predicate, row, head_arity)) {
            ++st->facts_derived;
            if (task.rex != nullptr) ++task.rex->facts_derived;
            if (delta_out != nullptr) {
              delta_out->InsertIds(rule.head.predicate, row, head_arity);
            }
          }
        }
      }
    };

    // A stratum without a recursive occurrence is done after round 0:
    // no later round would read its delta, so none is kept.
    const bool recursive = std::any_of(
        normal_rules.begin(), normal_rules.end(),
        [](const CompiledRule& r) { return !r.recursive_positions.empty(); });
    Database delta;
    ++st->iterations;
    {
      std::vector<RuleTask> tasks;
      for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
        add_task(normal_rules[ri], normal_rex[ri], kNoDelta, &tasks);
      }
      run_tasks(&tasks, nullptr);
      merge_tasks(&tasks, recursive ? &delta : nullptr);
    }

    for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
      if (delta.TotalFacts() == 0) break;
      ++st->iterations;
      Database next_delta;
      std::vector<RuleTask> tasks;
      for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
        const CompiledRule& rule = normal_rules[ri];
        for (size_t pos : rule.recursive_positions) {
          if (delta.FactCount(rule.body[pos].atom.predicate) == 0) continue;
          add_task(rule, normal_rex[ri], pos, &tasks);
        }
      }
      run_tasks(&tasks, &delta);
      merge_tasks(&tasks, &next_delta);
      delta = std::move(next_delta);
      if (iter + 1 == options_.max_iterations && delta.TotalFacts() != 0) {
        return Status::ResourceExhausted(
            "semi-naive evaluation exceeded max_iterations");
      }
    }
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m->GetCounter("vada_datalog_rules_fired",
                  "Rule body evaluations attempted")
        ->Increment(st->rule_applications);
    m->GetCounter("vada_datalog_facts_derived", "New IDB facts derived")
        ->Increment(st->facts_derived);
    m->GetCounter("vada_datalog_iterations",
                  "Fixpoint rounds across all strata")
        ->Increment(st->iterations);
    m->GetCounter("vada_datalog_join_probes",
                  "Candidate facts scanned by non-indexed body atoms "
                  "(full scans and single-column seeks)")
        ->Increment(st->join_probes);
    m->GetCounter("vada_datalog_index_probes_total",
                  "Composite hash-index lookups by body atoms")
        ->Increment(st->index_probes);
    m->GetCounter("vada_datalog_index_candidates_total",
                  "Facts enumerated from composite index buckets")
        ->Increment(st->index_candidates);
    m->GetCounter("vada_datalog_index_builds_total",
                  "Composite hash indexes built lazily")
        ->Increment(st->index_builds);
    // One sample per run: fraction of join work resolved through
    // composite indexes (probe-vs-scan mix; 1.0 = fully indexed).
    size_t total_work = st->join_probes + st->index_probes +
                        st->index_candidates;
    if (total_work > 0) {
      m->GetHistogram("vada_datalog_indexed_work_ratio",
                      "Share of join work served by composite indexes",
                      {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
          ->Observe(static_cast<double>(st->index_probes +
                                        st->index_candidates) /
                    static_cast<double>(total_work));
    }
    m->GetCounter("vada_datalog_evaluations", "Evaluator::Run invocations")
        ->Increment();
  }
  return Status::OK();
}

Result<std::vector<Tuple>> Query(const Program& program, Database* db,
                                 const std::string& goal_predicate,
                                 const EvalOptions& options) {
  // Opt-in goal-directed rewrite: the optimized program derives exactly
  // the same goal facts (the differential fuzz harness checks this
  // bit-for-bit), so Query — which only exposes the goal relation — may
  // substitute it freely. The static cardinality bounds computed along
  // the way become the planner's priors for still-empty IDB relations.
  const Program* to_run = &program;
  dataflow::OptimizeResult optimized;
  EvalOptions eval_options = options;
  if (options.planner.optimize) {
    dataflow::EdbSeeds seeds = dataflow::SeedsFromDatabase(*db);
    optimized = dataflow::OptimizeProgram(program, goal_predicate, seeds);
    to_run = &optimized.program;
    dataflow::DataflowOptions dopt;
    dopt.assume_unknown_nonempty = false;
    dataflow::DataflowResult df =
        dataflow::AnalyzeDataflow(optimized.program, seeds, dopt);
    eval_options.planner.priors =
        std::make_shared<const std::map<std::string, size_t>>(
            df.CardinalityPriors());
  }
  Evaluator eval(*to_run, eval_options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  VADA_RETURN_IF_ERROR(eval.Run(db));
  std::vector<Tuple> out = db->facts(goal_predicate);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vada::datalog
