#include "mapping/executor.h"

#include <algorithm>
#include <numeric>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/symbol_table.h"

namespace vada {

namespace {

/// `predicate`'s facts in `db` as id rows, sorted as the Tuples they
/// denote would sort. The index permutation std::sort produces is the
/// one it would apply to the Tuples (same input order, same comparison
/// outcomes), so rows that compare equivalent keep the same relative
/// order too.
MappingRows SortedRows(const datalog::Database& db,
                       const std::string& predicate) {
  MappingRows out;
  const datalog::Database::View view = db.view(predicate);
  if (!view.valid()) return out;
  out.arity = view.arity();
  out.rows = view.rows();
  std::vector<const datalog::SymbolId*> columns(out.arity);
  for (size_t k = 0; k < out.arity; ++k) columns[k] = view.column(k);
  const datalog::SymbolTable& symbols = datalog::SymbolTable::Global();
  std::vector<uint32_t> order(out.rows);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const datalog::SymbolId* column : columns) {
      if (column[a] == column[b]) continue;
      const Value& x = symbols.value(column[a]);
      const Value& y = symbols.value(column[b]);
      if (x < y) return true;
      if (y < x) return false;
    }
    return false;
  });
  out.ids.reserve(out.rows * out.arity);
  for (uint32_t row : order) {
    for (const datalog::SymbolId* column : columns) {
      out.ids.push_back(column[row]);
    }
  }
  return out;
}

}  // namespace

Result<Relation> MappingExecutor::Execute(const Mapping& mapping,
                                          const Schema& target,
                                          const KnowledgeBase& kb,
                                          datalog::Provenance* provenance)
    const {
  // Load only the mapping's source relations. Loading the whole KB would
  // feed the *previous* execution's result relation back in as EDB facts
  // of the head predicate, accumulating stale tuples across re-runs.
  datalog::Database db;
  if (cache_ != nullptr) {
    for (std::shared_ptr<const datalog::Database>& snap :
         Snapshots(mapping, kb)) {
      db.AttachShared(std::move(snap));
    }
  } else {
    for (const std::string& source : mapping.source_relations) {
      const Relation* rel = kb.FindRelation(source);
      if (rel != nullptr) db.LoadRelation(*rel);
    }
  }
  Result<MappingRows> rows = EvaluateIn(mapping, &db, provenance);
  if (!rows.ok()) return rows.status();
  return ToRelation(mapping, target, rows.value());
}

SourceSnapshots MappingExecutor::Snapshots(const Mapping& mapping,
                                           const KnowledgeBase& kb) const {
  SourceSnapshots out;
  for (const std::string& source : mapping.source_relations) {
    std::shared_ptr<const datalog::Database> snap = cache_->Get(kb, source);
    if (snap != nullptr) out.push_back(std::move(snap));
  }
  return out;
}

Result<MappingRows> MappingExecutor::Evaluate(
    const Mapping& mapping, const SourceSnapshots& sources) const {
  datalog::Database db;
  for (const std::shared_ptr<const datalog::Database>& snap : sources) {
    db.AttachShared(snap);
  }
  return EvaluateIn(mapping, &db, /*provenance=*/nullptr);
}

Result<MappingRows> MappingExecutor::EvaluateIn(
    const Mapping& mapping, datalog::Database* db,
    datalog::Provenance* provenance) const {
  Result<datalog::Program> program = datalog::Parser::Parse(mapping.rule_text);
  if (!program.ok()) {
    return Status::InvalidArgument("mapping " + mapping.id +
                                   " has unparsable rule: " +
                                   program.status().message());
  }
  datalog::EvalOptions eval_options;
  eval_options.planner = planner_;
  datalog::Evaluator eval(std::move(program).value(), eval_options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  VADA_RETURN_IF_ERROR(eval.Run(db, /*stats=*/nullptr, provenance));
  return SortedRows(*db, mapping.result_predicate);
}

Result<Relation> MappingExecutor::ToRelation(const Mapping& mapping,
                                             const Schema& target,
                                             const MappingRows& rows) {
  Relation out(Schema(mapping.result_predicate, target.attributes()));
  if (rows.rows > 0 && rows.arity != target.arity()) {
    return Status::Internal("mapping " + mapping.id +
                            " produced tuple of wrong arity");
  }
  const datalog::SymbolTable& symbols = datalog::SymbolTable::Global();
  const datalog::SymbolId* id = rows.ids.data();
  for (size_t r = 0; r < rows.rows; ++r) {
    std::vector<Value> values;
    values.reserve(rows.arity);
    for (size_t k = 0; k < rows.arity; ++k) {
      values.push_back(symbols.value(*id++));
    }
    VADA_RETURN_IF_ERROR(out.InsertUnchecked(Tuple(std::move(values))));
  }
  return out;
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
