#include "datalog/planner.h"

#include <algorithm>
#include <set>
#include <string>

#include "datalog/database.h"

namespace vada::datalog {

namespace {

/// A negation, comparison or assignment whose variables are all bound is
/// a pure filter — schedule it as early as possible so it prunes the
/// join prefix instead of re-testing every extension.
bool IsReadyNonAtom(const Literal& l, const std::set<std::string>& bound) {
  switch (l.kind) {
    case Literal::Kind::kAtom:
      return false;
    case Literal::Kind::kNegatedAtom:
      for (const Term& t : l.atom.terms) {
        if (t.is_variable() && bound.count(t.var()) == 0) return false;
      }
      return true;
    case Literal::Kind::kComparison:
      if (l.lhs.is_variable() && bound.count(l.lhs.var()) == 0) return false;
      if (l.rhs.is_variable() && bound.count(l.rhs.var()) == 0) return false;
      return true;
    case Literal::Kind::kAssignment:
      if (l.lhs.is_variable() && bound.count(l.lhs.var()) == 0) return false;
      if (l.arith_op != ArithOp::kNone && l.rhs.is_variable() &&
          bound.count(l.rhs.var()) == 0) {
        return false;
      }
      return true;
  }
  return false;
}

void BindVars(const Literal& l, std::set<std::string>* bound) {
  switch (l.kind) {
    case Literal::Kind::kAtom:
      for (const Term& t : l.atom.terms) {
        if (t.is_variable()) bound->insert(t.var());
      }
      break;
    case Literal::Kind::kAssignment:
      bound->insert(l.assign_var);
      break;
    case Literal::Kind::kNegatedAtom:
    case Literal::Kind::kComparison:
      break;
  }
}

size_t BoundTermCount(const Literal& l, const std::set<std::string>& bound) {
  size_t n = 0;
  for (const Term& t : l.atom.terms) {
    if (t.is_constant() || (t.is_variable() && bound.count(t.var()) > 0)) ++n;
  }
  return n;
}

/// Estimated candidate count of evaluating `l` next: the relation's
/// cardinality shrunk by 8x per bound position (a crude equality
/// selectivity), floored at 1 unless the relation is empty. A fully
/// bound atom degenerates to a containment check and costs 0, which is
/// what puts all-constant atoms (and empty relations) first.
/// A relation with no facts yet falls back to the static cardinality
/// prior from the dataflow analysis when one exists (IDB predicates at
/// stratum-compile time always count 0); `*prior_used` reports the
/// prior consulted, 0 when runtime stats decided.
size_t EstimatedCost(const Literal& l, const Database& db,
                     const PlannerOptions& options,
                     const std::set<std::string>& bound,
                     size_t* prior_used) {
  *prior_used = 0;
  size_t card = db.FactCount(l.atom.predicate);
  if (card == 0 && options.priors != nullptr) {
    auto it = options.priors->find(l.atom.predicate);
    if (it != options.priors->end()) {
      card = it->second;
      *prior_used = card;
    }
  }
  if (card == 0) return 0;
  size_t n = BoundTermCount(l, bound);
  if (n >= l.atom.terms.size() && !l.atom.terms.empty()) return 0;
  size_t shift = std::min<size_t>(3 * n, 62);
  size_t cost = card >> shift;
  return std::max<size_t>(cost, 1);
}

}  // namespace

std::vector<size_t> PlanBodyOrder(const Rule& rule, const Database* db,
                                  const PlannerOptions& options,
                                  std::vector<LiteralPlan>* plan) {
  const bool cost_based = options.reorder && db != nullptr;
  std::vector<size_t> pending;
  pending.reserve(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) pending.push_back(i);

  if (plan != nullptr) {
    plan->clear();
    plan->reserve(rule.body.size());
  }
  std::set<std::string> bound;
  std::vector<size_t> ordered;
  ordered.reserve(rule.body.size());
  auto place = [&](size_t pending_pos, size_t estimated_cost,
                   size_t static_prior) {
    size_t body_index = pending[pending_pos];
    ordered.push_back(body_index);
    if (plan != nullptr) {
      const Literal& l = rule.body[body_index];
      size_t bound_terms =
          l.kind == Literal::Kind::kAtom || l.kind == Literal::Kind::kNegatedAtom
              ? BoundTermCount(l, bound)
              : 0;
      plan->push_back(
          LiteralPlan{body_index, estimated_cost, bound_terms, static_prior});
    }
    BindVars(rule.body[body_index], &bound);
    pending.erase(pending.begin() + pending_pos);
  };

  while (!pending.empty()) {
    // 1. Any ready builtin/negation?
    bool placed = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (IsReadyNonAtom(rule.body[pending[i]], bound)) {
        place(i, 0, 0);
        placed = true;
        break;
      }
    }
    if (placed) continue;
    // 2. Cheapest positive atom. Ties fall back to declared order in
    // both modes, so planning is deterministic.
    int best = -1;
    size_t best_cost = 0;
    size_t best_prior = 0;
    if (cost_based) {
      size_t best_bound = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        const Literal& l = rule.body[pending[i]];
        if (l.kind != Literal::Kind::kAtom) continue;
        size_t prior_used = 0;
        size_t cost = EstimatedCost(l, *db, options, bound, &prior_used);
        size_t bound_terms = BoundTermCount(l, bound);
        if (best < 0 || cost < best_cost ||
            (cost == best_cost && bound_terms > best_bound)) {
          best = static_cast<int>(i);
          best_cost = cost;
          best_bound = bound_terms;
          best_prior = prior_used;
        }
      }
    } else {
      int best_score = -1;
      for (size_t i = 0; i < pending.size(); ++i) {
        const Literal& l = rule.body[pending[i]];
        if (l.kind != Literal::Kind::kAtom) continue;
        int score = static_cast<int>(BoundTermCount(l, bound));
        if (score > best_score) {
          best_score = score;
          best = static_cast<int>(i);
        }
      }
    }
    if (best >= 0) {
      place(static_cast<size_t>(best), best_cost, best_prior);
      continue;
    }
    // 3. Only non-ready builtins/negations left. Program validation
    // guarantees this cannot happen for safe rules; emit in order as a
    // defensive fallback.
    place(0, 0, 0);
  }
  return ordered;
}

}  // namespace vada::datalog
