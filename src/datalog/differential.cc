#include "datalog/differential.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "datalog/symbol_table.h"

namespace vada::datalog {
namespace {

void MergeEval(const EvalStats& from, EvalStats* to) {
  to->iterations += from.iterations;
  to->facts_derived += from.facts_derived;
  to->rule_applications += from.rule_applications;
  to->join_probes += from.join_probes;
  to->index_probes += from.index_probes;
  to->index_candidates += from.index_candidates;
  to->index_builds += from.index_builds;
}

void MergeDelta(const DeltaStats& from, DeltaStats* to) {
  if (to == nullptr) return;
  to->applies += from.applies;
  to->full_fallbacks += from.full_fallbacks;
  to->strata_skipped += from.strata_skipped;
  to->strata_counting += from.strata_counting;
  to->strata_monotone += from.strata_monotone;
  to->strata_recomputed += from.strata_recomputed;
  to->facts_inserted += from.facts_inserted;
  to->facts_retracted += from.facts_retracted;
  MergeEval(from.eval, &to->eval);
}

std::vector<SymbolId> InternRow(const Tuple& t) {
  SymbolTable& table = SymbolTable::Global();
  std::vector<SymbolId> row(t.size());
  for (size_t i = 0; i < t.size(); ++i) row[i] = table.Intern(t.at(i));
  return row;
}

/// Predicates of `rule`'s positive body atoms, in declared order — the
/// occurrence numbering Evaluator::Sweep's sources follow.
std::vector<std::string> AtomPredicates(const Rule& rule) {
  std::vector<std::string> out;
  for (const Literal& l : rule.body) {
    if (l.kind == Literal::Kind::kAtom) out.push_back(l.atom.predicate);
  }
  return out;
}

std::string JoinPreds(const std::vector<std::string>& preds) {
  std::string out;
  for (const std::string& p : preds) {
    if (!out.empty()) out += ",";
    out += p;
  }
  return out;
}

}  // namespace

DifferentialEvaluator::DifferentialEvaluator(Program program,
                                             DifferentialOptions options)
    : program_(std::move(program)), opts_(options) {}

DifferentialEvaluator::~DifferentialEvaluator() = default;

Status DifferentialEvaluator::Prepare() {
  if (prepared_) {
    return Status::FailedPrecondition("Prepare() already called");
  }
  VADA_RETURN_IF_ERROR(program_.Validate());
  Result<Stratification> strat = Stratify(program_);
  if (!strat.ok()) return strat.status();
  stratification_ = std::move(strat).value();

  full_eval_ = std::make_unique<Evaluator>(program_, opts_.eval);
  VADA_RETURN_IF_ERROR(full_eval_->Prepare());

  // Per-stratum evaluators run as internal maintenance steps; the
  // full-program evaluator alone carries metric publication so a
  // maintained program doesn't double-count vada_datalog_* families.
  EvalOptions sub_opts = opts_.eval;
  sub_opts.metrics = nullptr;

  for (const std::vector<std::string>& stratum : stratification_.strata) {
    StratumInfo si;
    si.preds = stratum;
    std::sort(si.preds.begin(), si.preds.end());
    si.pred_set.insert(si.preds.begin(), si.preds.end());
    bool same_stratum_ref = false;
    for (const Rule& r : program_.rules) {
      if (si.pred_set.count(r.head.predicate) == 0) continue;
      si.sub_program.rules.push_back(r);
      if (r.HasAggregates()) si.has_negation_or_aggregates = true;
      for (const Literal& l : r.body) {
        if (l.kind != Literal::Kind::kAtom &&
            l.kind != Literal::Kind::kNegatedAtom) {
          continue;
        }
        if (l.kind == Literal::Kind::kNegatedAtom) {
          si.has_negation_or_aggregates = true;
        }
        if (si.pred_set.count(l.atom.predicate) > 0) {
          same_stratum_ref = true;
        } else {
          si.input_preds.insert(l.atom.predicate);
        }
      }
    }
    if (si.has_negation_or_aggregates) {
      si.mode = StratumMode::kComplex;
    } else if (same_stratum_ref) {
      si.mode = StratumMode::kMonotone;
    } else {
      si.mode = StratumMode::kCounting;
    }
    si.sub_eval = std::make_unique<Evaluator>(si.sub_program, sub_opts);
    VADA_RETURN_IF_ERROR(si.sub_eval->Prepare());
    for (const std::string& p : si.preds) stratum_of_[p] = strata_.size();
    strata_.push_back(std::move(si));
  }
  prepared_ = true;
  return Status::OK();
}

Status DifferentialEvaluator::Initialize(const Database& edb,
                                         DeltaStats* stats) {
  if (!prepared_) {
    return Status::FailedPrecondition("Initialize() before Prepare()");
  }
  DeltaStats local;
  state_.clear();
  for (const std::string& pred : edb.Predicates()) {
    Database::View v = edb.view(pred);
    if (!v.valid()) continue;
    PredState& ps = state_[pred];
    ps.arity = v.arity();
    ps.arity_set = true;
    Row row(v.arity());
    for (size_t r = 0; r < v.rows(); ++r) {
      for (size_t p = 0; p < v.arity(); ++p) row[p] = v.column(p)[r];
      ps.rows[row].base = true;
    }
  }
  Database db = edb;
  EvalStats es;
  VADA_RETURN_IF_ERROR(full_eval_->Run(&db, &es));
  MergeEval(es, &local.eval);
  VADA_RETURN_IF_ERROR(RebuildDerivedState(db, &local.eval));
  current_ = std::make_shared<const Database>(std::move(db));
  initialized_ = true;
  last_plan_ = "full plan: initialize";
  MergeDelta(local, &lifetime_);
  MergeDelta(local, stats);
  return Status::OK();
}

Status DifferentialEvaluator::RebuildDerivedState(const Database& db,
                                                  EvalStats* st) {
  for (StratumInfo& si : strata_) {
    for (const std::string& pred : si.preds) {
      PredState& ps = state_[pred];
      for (auto it = ps.rows.begin(); it != ps.rows.end();) {
        if (!it->second.base) {
          it = ps.rows.erase(it);
        } else {
          it->second.count = 0;
          ++it;
        }
      }
    }
  }
  for (StratumInfo& si : strata_) {
    if (si.mode == StratumMode::kCounting) {
      for (size_t ri = 0; ri < si.sub_program.rules.size(); ++ri) {
        const Rule& rule = si.sub_program.rules[ri];
        const size_t arity = rule.head.terms.size();
        PredState& ps = state_[rule.head.predicate];
        if (!ps.arity_set) {
          ps.arity = arity;
          ps.arity_set = true;
        }
        const std::vector<const Database*> sources(AtomPredicates(rule).size(),
                                                   &db);
        VADA_RETURN_IF_ERROR(si.sub_eval->Sweep(
            ri, sources, kNoLead, db, st, [&](const SymbolId* head) {
              ++ps.rows[Row(head, head + arity)].count;
            }));
      }
    } else {
      for (const std::string& pred : si.preds) {
        Database::View v = db.view(pred);
        if (!v.valid()) continue;
        PredState& ps = state_[pred];
        if (!ps.arity_set) {
          ps.arity = v.arity();
          ps.arity_set = true;
        }
        Row row(v.arity());
        for (size_t r = 0; r < v.rows(); ++r) {
          for (size_t p = 0; p < v.arity(); ++p) row[p] = v.column(p)[r];
          FactInfo& fi = ps.rows[row];
          if (!fi.base) fi.count = 1;
        }
      }
    }
  }
  return Status::OK();
}

Status DifferentialEvaluator::ApplyDelta(const RelationDelta& delta,
                                         DeltaStats* stats) {
  if (!initialized_) {
    return Status::FailedPrecondition("ApplyDelta() before Initialize()");
  }
  DeltaStats local;
  ++local.applies;

  // Pass 1 (no mutation): intern, net insert/retract pairs, and keep
  // only rows whose base flag actually flips — re-inserting a present
  // row or retracting an absent one is a no-op by contract.
  std::map<std::string, PredDelta> flips;
  size_t flip_rows = 0;
  for (const auto& [pred, dr] : delta) {
    std::set<Row> inserts;
    std::set<Row> retracts;
    for (const Tuple& t : dr.inserts) inserts.insert(InternRow(t));
    for (const Tuple& t : dr.retracts) retracts.insert(InternRow(t));
    for (auto it = inserts.begin(); it != inserts.end();) {
      auto rit = retracts.find(*it);
      if (rit != retracts.end()) {
        retracts.erase(rit);
        it = inserts.erase(it);
      } else {
        ++it;
      }
    }
    if (inserts.empty() && retracts.empty()) continue;
    PredState& ps = state_[pred];
    for (const Row& row : inserts) {
      if (ps.arity_set && row.size() != ps.arity) continue;  // defensive
      auto it = ps.rows.find(row);
      if (it != ps.rows.end() && it->second.base) continue;
      flips[pred].inserts.push_back(row);
      ++flip_rows;
    }
    for (const Row& row : retracts) {
      if (ps.arity_set && row.size() != ps.arity) continue;
      auto it = ps.rows.find(row);
      if (it == ps.rows.end() || !it->second.base) continue;
      flips[pred].retracts.push_back(row);
      ++flip_rows;
    }
  }
  if (flip_rows == 0) {
    last_plan_ = "delta plan: no-op";
    MergeDelta(local, &lifetime_);
    MergeDelta(local, stats);
    return Status::OK();
  }

  const size_t base_total = BaseRowCount();
  const double fraction = static_cast<double>(flip_rows) /
                          static_cast<double>(std::max<size_t>(1, base_total));
  if (opts_.max_delta_fraction <= 0 || fraction > opts_.max_delta_fraction) {
    for (auto& [pred, pd] : flips) {
      PredState& ps = state_[pred];
      for (const Row& row : pd.inserts) {
        if (!ps.arity_set) {
          ps.arity = row.size();
          ps.arity_set = true;
        }
        ps.rows[row].base = true;
      }
      for (const Row& row : pd.retracts) {
        auto it = ps.rows.find(row);
        if (it == ps.rows.end()) continue;
        it->second.base = false;
        // Stale derived counts are rebuilt below; EDB rows die here.
        if (it->second.count == 0) ps.rows.erase(it);
      }
    }
    Status s = FullRebuild(&local);
    std::ostringstream plan;
    plan << "full plan: fallback (delta fraction " << std::fixed
         << std::setprecision(2) << fraction << ", " << flip_rows << "/"
         << base_total << " base rows)";
    last_plan_ = plan.str();
    MergeDelta(local, &lifetime_);
    MergeDelta(local, stats);
    return s;
  }

  // Incremental path. `pending` carries each predicate's presence
  // changes downstream; `staged` holds base flips of IDB predicates
  // until their stratum is processed (their presence depends on
  // derivation counts, so the flip is folded in there).
  std::map<std::string, PredDelta> pending;
  std::vector<Stage> staged(strata_.size());
  Database next;
  next.AttachShared(current_);
  for (auto& [pred, pd] : flips) {
    auto sit = stratum_of_.find(pred);
    if (sit != stratum_of_.end()) {
      staged[sit->second][pred] = std::move(pd);
      continue;
    }
    // EDB: the base flag is the presence.
    PredState& ps = state_[pred];
    PredDelta& out = pending[pred];
    for (const Row& row : pd.inserts) {
      if (!ps.arity_set) {
        ps.arity = row.size();
        ps.arity_set = true;
      }
      ps.rows[row].base = true;
      out.inserts.push_back(row);
      ++local.facts_inserted;
    }
    for (const Row& row : pd.retracts) {
      ps.rows.erase(row);
      out.retracts.push_back(row);
      ++local.facts_retracted;
    }
    if (out.retracts.empty()) {
      for (const Row& row : out.inserts) {
        next.InsertIds(pred, row.data(), row.size());
      }
    } else {
      RebuildPredicate(&next, pred);
    }
  }

  std::ostringstream plan;
  plan << "delta plan (fraction " << std::fixed << std::setprecision(2)
       << fraction << "):";
  for (size_t s = 0; s < strata_.size(); ++s) {
    StratumInfo& si = strata_[s];
    bool inputs_changed = false;
    bool input_retracts = false;
    for (const std::string& in : si.input_preds) {
      auto it = pending.find(in);
      if (it == pending.end()) continue;
      if (!it->second.inserts.empty() || !it->second.retracts.empty()) {
        inputs_changed = true;
      }
      if (!it->second.retracts.empty()) input_retracts = true;
    }
    const Stage& stage = staged[s];
    bool stage_retracts = false;
    for (const auto& [pred, pd] : stage) {
      if (!pd.retracts.empty()) stage_retracts = true;
    }
    const char* mode_name = "skip";
    if (!inputs_changed && stage.empty()) {
      ++local.strata_skipped;
    } else if (si.mode == StratumMode::kCounting) {
      mode_name = "counting";
      VADA_RETURN_IF_ERROR(ApplyCounting(&si, &next, &pending, &stage,
                                         &local));
    } else if (si.mode == StratumMode::kMonotone && !input_retracts &&
               !stage_retracts) {
      mode_name = "monotone";
      VADA_RETURN_IF_ERROR(ApplyMonotone(&si, &next, &pending, &stage,
                                         &local));
    } else {
      mode_name = "recompute";
      VADA_RETURN_IF_ERROR(Recompute(&si, &next, &pending, &stage, &local));
    }
    plan << " {" << JoinPreds(si.preds) << "}=" << mode_name;
  }
  current_ = std::make_shared<const Database>(std::move(next));
  last_plan_ = plan.str();
  MergeDelta(local, &lifetime_);
  MergeDelta(local, stats);
  return Status::OK();
}

Status DifferentialEvaluator::ApplyCounting(
    StratumInfo* si, Database* next, std::map<std::string, PredDelta>* pending,
    const Stage* stage, DeltaStats* st) {
  ++st->strata_counting;
  // The batch's signed input changes, as sources a sweep's delta
  // occurrence can range over.
  Database inserted;
  Database retracted;
  for (const std::string& in : si->input_preds) {
    auto it = pending->find(in);
    if (it == pending->end()) continue;
    for (const Row& row : it->second.inserts) {
      inserted.InsertIds(in, row.data(), row.size());
    }
    for (const Row& row : it->second.retracts) {
      retracted.InsertIds(in, row.data(), row.size());
    }
  }
  std::map<std::string, std::map<Row, RowChange>> changes;
  for (size_t ri = 0; ri < si->sub_program.rules.size(); ++ri) {
    const Rule& rule = si->sub_program.rules[ri];
    const size_t arity = rule.head.terms.size();
    std::map<Row, RowChange>& head_changes = changes[rule.head.predicate];
    const std::vector<std::string> atoms = AtomPredicates(rule);
    for (size_t k = 0; k < atoms.size(); ++k) {
      // Occurrences left of the delta'd one read the updated store,
      // occurrences right of it the pre-batch snapshot — the
      // telescoping split that makes the signed sweeps sum exactly to
      // Q(new) - Q(old).
      std::vector<const Database*> sources(atoms.size(), current_.get());
      std::fill(sources.begin(), sources.begin() + k, next);
      for (const Database* delta : {&inserted, &retracted}) {
        if (delta->FactCount(atoms[k]) == 0) continue;
        const int sign = delta == &inserted ? 1 : -1;
        sources[k] = delta;
        VADA_RETURN_IF_ERROR(si->sub_eval->Sweep(
            ri, sources, k, *next, &st->eval, [&](const SymbolId* head) {
              head_changes[Row(head, head + arity)].count_delta += sign;
            }));
      }
    }
  }
  for (const auto& [pred, pd] : *stage) {
    std::map<Row, RowChange>& ch = changes[pred];
    for (const Row& row : pd.inserts) ch[row].base_set = 1;
    for (const Row& row : pd.retracts) ch[row].base_set = 0;
  }
  for (const std::string& pred : si->preds) {
    auto it = changes.find(pred);
    if (it == changes.end() || it->second.empty()) continue;
    ApplyRowChanges(pred, it->second, next, &(*pending)[pred], st);
  }
  return Status::OK();
}

Status DifferentialEvaluator::ApplyMonotone(
    StratumInfo* si, Database* next, std::map<std::string, PredDelta>* pending,
    const Stage* stage, DeltaStats* st) {
  ++st->strata_monotone;
  Database delta_db;
  for (const std::string& in : si->input_preds) {
    auto it = pending->find(in);
    if (it == pending->end()) continue;
    for (const Row& row : it->second.inserts) {
      delta_db.InsertIds(in, row.data(), row.size());
    }
  }
  for (const auto& [pred, pd] : *stage) {
    PredState& ps = state_[pred];
    for (const Row& row : pd.inserts) {
      if (!ps.arity_set) {
        ps.arity = row.size();
        ps.arity_set = true;
      }
      FactInfo& fi = ps.rows[row];
      const bool before = fi.Present();
      fi.base = true;
      if (!before) {
        next->InsertIds(pred, row.data(), row.size());
        delta_db.InsertIds(pred, row.data(), row.size());
        (*pending)[pred].inserts.push_back(row);
        ++st->facts_inserted;
      }
    }
  }
  Database added;
  VADA_RETURN_IF_ERROR(
      si->sub_eval->RunIncrement(next, delta_db, &st->eval, &added));
  for (const std::string& pred : added.Predicates()) {
    Database::View v = added.view(pred);
    if (!v.valid()) continue;
    PredState& ps = state_[pred];
    if (!ps.arity_set) {
      ps.arity = v.arity();
      ps.arity_set = true;
    }
    Row row(v.arity());
    for (size_t r = 0; r < v.rows(); ++r) {
      for (size_t p = 0; p < v.arity(); ++p) row[p] = v.column(p)[r];
      FactInfo& fi = ps.rows[row];
      if (!fi.Present()) {
        fi.count = 1;
        (*pending)[pred].inserts.push_back(row);
        ++st->facts_inserted;
      }
    }
  }
  return Status::OK();
}

Status DifferentialEvaluator::Recompute(StratumInfo* si, Database* next,
                                        std::map<std::string, PredDelta>*
                                            pending,
                                        const Stage* stage, DeltaStats* st) {
  ++st->strata_recomputed;
  // Presence before this batch touched the stratum (pre-stage): the
  // diff against the re-evaluation is computed from this snapshot.
  std::map<std::string, std::set<Row>> old_present;
  for (const std::string& pred : si->preds) {
    auto it = state_.find(pred);
    if (it == state_.end()) continue;
    std::set<Row>& rows = old_present[pred];
    for (const auto& [row, fi] : it->second.rows) {
      if (fi.Present()) rows.insert(row);
    }
  }
  for (const auto& [pred, pd] : *stage) {
    PredState& ps = state_[pred];
    for (const Row& row : pd.inserts) {
      if (!ps.arity_set) {
        ps.arity = row.size();
        ps.arity_set = true;
      }
      ps.rows[row].base = true;
    }
    for (const Row& row : pd.retracts) {
      auto it = ps.rows.find(row);
      if (it != ps.rows.end()) it->second.base = false;
    }
  }
  // Re-evaluate the stratum in isolation: clear its predicates, reseed
  // base rows, run the sub-program against the maintained inputs.
  for (const std::string& pred : si->preds) {
    next->ResetPredicate(pred);
    auto it = state_.find(pred);
    if (it == state_.end()) continue;
    for (const auto& [row, fi] : it->second.rows) {
      if (fi.base) next->InsertIds(pred, row.data(), row.size());
    }
  }
  EvalStats es;
  VADA_RETURN_IF_ERROR(si->sub_eval->Run(next, &es));
  MergeEval(es, &st->eval);
  for (const std::string& pred : si->preds) {
    PredState& ps = state_[pred];
    std::set<Row> new_rows;
    Database::View v = next->view(pred);
    if (v.valid()) {
      if (!ps.arity_set) {
        ps.arity = v.arity();
        ps.arity_set = true;
      }
      Row row(v.arity());
      for (size_t r = 0; r < v.rows(); ++r) {
        for (size_t p = 0; p < v.arity(); ++p) row[p] = v.column(p)[r];
        new_rows.insert(row);
      }
    }
    const std::set<Row>& old_rows = old_present[pred];
    PredDelta pd;
    for (const Row& row : new_rows) {
      if (old_rows.count(row) == 0) pd.inserts.push_back(row);
    }
    for (const Row& row : old_rows) {
      if (new_rows.count(row) == 0) pd.retracts.push_back(row);
    }
    for (auto it = ps.rows.begin(); it != ps.rows.end();) {
      FactInfo& fi = it->second;
      const bool present = new_rows.count(it->first) > 0;
      fi.count = (present && !fi.base) ? 1 : 0;
      if (!fi.base && !present) {
        it = ps.rows.erase(it);
      } else {
        ++it;
      }
    }
    for (const Row& row : new_rows) {
      FactInfo& fi = ps.rows[row];
      if (!fi.base && fi.count == 0) fi.count = 1;
    }
    st->facts_inserted += pd.inserts.size();
    st->facts_retracted += pd.retracts.size();
    if (!pd.inserts.empty() || !pd.retracts.empty()) {
      (*pending)[pred] = std::move(pd);
    }
  }
  return Status::OK();
}

Status DifferentialEvaluator::FullRebuild(DeltaStats* st) {
  ++st->full_fallbacks;
  Database db;
  for (const auto& [pred, ps] : state_) {
    for (const auto& [row, fi] : ps.rows) {
      if (fi.base) db.InsertIds(pred, row.data(), row.size());
    }
  }
  EvalStats es;
  VADA_RETURN_IF_ERROR(full_eval_->Run(&db, &es));
  MergeEval(es, &st->eval);
  VADA_RETURN_IF_ERROR(RebuildDerivedState(db, &st->eval));
  current_ = std::make_shared<const Database>(std::move(db));
  return Status::OK();
}

void DifferentialEvaluator::RebuildPredicate(Database* next,
                                             const std::string& pred) {
  next->ResetPredicate(pred);
  auto it = state_.find(pred);
  if (it == state_.end()) return;
  for (const auto& [row, fi] : it->second.rows) {
    if (fi.Present()) next->InsertIds(pred, row.data(), row.size());
  }
}

void DifferentialEvaluator::ApplyRowChanges(
    const std::string& pred, const std::map<Row, RowChange>& changes,
    Database* next, PredDelta* out, DeltaStats* st) {
  PredState& ps = state_[pred];
  std::vector<Row> dead;
  for (const auto& [row, ch] : changes) {
    if (!ps.arity_set) {
      ps.arity = row.size();
      ps.arity_set = true;
    }
    if (row.size() != ps.arity) continue;
    FactInfo& fi = ps.rows[row];
    const bool before = fi.Present();
    fi.count += ch.count_delta;
    if (ch.base_set >= 0) fi.base = ch.base_set != 0;
    const bool after = fi.Present();
    if (after && !before) {
      out->inserts.push_back(row);
      ++st->facts_inserted;
    } else if (before && !after) {
      out->retracts.push_back(row);
      ++st->facts_retracted;
    }
    if (!fi.base && fi.count <= 0) dead.push_back(row);
  }
  for (const Row& row : dead) ps.rows.erase(row);
  if (!out->retracts.empty()) {
    // The columnar store has no row removal: rebuild from the state
    // map (sorted rows — consumers order-normalize; DESIGN.md §5k).
    RebuildPredicate(next, pred);
  } else {
    for (const Row& row : out->inserts) {
      next->InsertIds(pred, row.data(), row.size());
    }
  }
}

size_t DifferentialEvaluator::BaseRowCount() const {
  size_t n = 0;
  for (const auto& [pred, ps] : state_) {
    for (const auto& [row, fi] : ps.rows) {
      if (fi.base) ++n;
    }
  }
  return n;
}

}  // namespace vada::datalog
