#include "mapping/executor.h"

#include <algorithm>

#include "datalog/evaluator.h"
#include "datalog/parser.h"

namespace vada {

namespace {

/// The mapping's result relation: `facts` sorted, then moved in.
Result<Relation> SortedResult(const Mapping& mapping, const Schema& target,
                              std::vector<Tuple> facts) {
  std::sort(facts.begin(), facts.end());
  Relation out(Schema(mapping.result_predicate, target.attributes()));
  for (Tuple& t : facts) {
    if (t.size() != target.arity()) {
      return Status::Internal("mapping " + mapping.id +
                              " produced tuple of wrong arity");
    }
    VADA_RETURN_IF_ERROR(out.InsertUnchecked(std::move(t)));
  }
  return out;
}

}  // namespace

Result<Relation> MappingExecutor::Execute(const Mapping& mapping,
                                          const Schema& target,
                                          const KnowledgeBase& kb,
                                          datalog::Provenance* provenance)
    const {
  Result<datalog::Program> program = datalog::Parser::Parse(mapping.rule_text);
  if (!program.ok()) {
    return Status::InvalidArgument("mapping " + mapping.id +
                                   " has unparsable rule: " +
                                   program.status().message());
  }
  // Load only the mapping's source relations. Loading the whole KB would
  // feed the *previous* execution's result relation back in as EDB facts
  // of the head predicate, accumulating stale tuples across re-runs.
  datalog::Database db;
  for (const std::string& source : mapping.source_relations) {
    if (cache_ != nullptr) {
      std::shared_ptr<const datalog::Database> snap = cache_->Get(kb, source);
      if (snap != nullptr) db.AttachShared(std::move(snap));
      continue;
    }
    const Relation* rel = kb.FindRelation(source);
    if (rel != nullptr) db.LoadRelation(*rel);
  }
  datalog::EvalOptions eval_options;
  eval_options.planner = planner_;
  datalog::Evaluator eval(program.value(), eval_options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  VADA_RETURN_IF_ERROR(eval.Run(&db, /*stats=*/nullptr, provenance));
  return SortedResult(mapping, target, db.facts(mapping.result_predicate));
}

Result<Relation> MappingExecutor::ExecuteIncremental(
    const Mapping& mapping, const Schema& target, const KnowledgeBase& kb,
    const DeltaLog& log, double max_delta_fraction,
    MappingDeltaState* state) const {
  // The sources' rows come from the delta log below, which a KB access
  // log cannot see; looking each source up keeps it in the read set of
  // the step executing this mapping.
  for (const std::string& source : mapping.source_relations) {
    (void)kb.HasRelation(source);
  }
  // The maintained state is reusable only when it was built from this
  // rule text, no rollback rewound versions we already consumed, and
  // the log can answer every source's range exactly.
  bool reusable = state->eval != nullptr &&
                  state->rule_text == mapping.rule_text &&
                  state->rewind_epoch == log.rewind_epoch();
  datalog::RelationDelta delta;
  if (reusable) {
    for (const std::string& source : mapping.source_relations) {
      std::optional<DeltaLog::RelationDelta> d =
          log.Since(source, state->kb_version);
      if (!d.has_value()) {
        reusable = false;
        break;
      }
      if (d->inserts.empty() && d->retracts.empty()) continue;
      datalog::DeltaRows& rows = delta[source];
      rows.inserts.insert(rows.inserts.end(), d->inserts.begin(),
                          d->inserts.end());
      rows.retracts.insert(rows.retracts.end(), d->retracts.begin(),
                           d->retracts.end());
    }
  }
  if (!reusable) {
    Result<datalog::Program> program =
        datalog::Parser::Parse(mapping.rule_text);
    if (!program.ok()) {
      return Status::InvalidArgument("mapping " + mapping.id +
                                     " has unparsable rule: " +
                                     program.status().message());
    }
    datalog::Database edb;
    for (const std::string& source : mapping.source_relations) {
      const Relation* rel = kb.FindRelation(source);
      if (rel != nullptr) edb.LoadRelation(*rel);
    }
    datalog::DifferentialOptions options;
    options.eval.planner = planner_;
    options.max_delta_fraction = max_delta_fraction;
    auto eval = std::make_unique<datalog::DifferentialEvaluator>(
        std::move(program).value(), options);
    VADA_RETURN_IF_ERROR(eval->Prepare());
    VADA_RETURN_IF_ERROR(eval->Initialize(edb));
    state->eval = std::move(eval);
    state->rule_text = mapping.rule_text;
    ++state->full_inits;
  } else if (!delta.empty()) {
    VADA_RETURN_IF_ERROR(state->eval->ApplyDelta(delta));
  }
  state->kb_version = kb.global_version();
  state->rewind_epoch = log.rewind_epoch();

  // Same result construction as Execute: the maintained database is
  // row-equal to a from-scratch evaluation (the differential fuzz
  // proves it), and the sort erases any row-order difference.
  return SortedResult(mapping, target,
                      state->eval->database().facts(mapping.result_predicate));
}

Result<Relation> MappingExecutor::ExecuteUnion(
    const std::vector<Mapping>& mappings, const Schema& target,
    const KnowledgeBase& kb, const std::string& result_name) const {
  Relation out(Schema(result_name, target.attributes()));
  for (const Mapping& m : mappings) {
    Result<Relation> part = Execute(m, target, kb);
    if (!part.ok()) return part.status();
    for (const Tuple& t : part.value().rows()) {
      VADA_RETURN_IF_ERROR(out.InsertUnchecked(t));
    }
  }
  return out;
}

}  // namespace vada
