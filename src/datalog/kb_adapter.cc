#include "datalog/kb_adapter.h"

#include <set>

#include "datalog/evaluator.h"
#include "datalog/parser.h"

namespace vada::datalog {

void LoadKnowledgeBase(const KnowledgeBase& kb, Database* db) {
  for (const std::string& name : kb.RelationNames()) {
    const Relation* rel = kb.FindRelation(name);
    if (rel != nullptr) db->LoadRelation(*rel);
  }
}

std::vector<std::string> ReferencedRelations(const Program& program) {
  std::set<std::string> derived;
  for (const Rule& rule : program.rules) {
    derived.insert(rule.head.predicate);
  }
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom &&
          lit.kind != Literal::Kind::kNegatedAtom) {
        continue;
      }
      const std::string& pred = lit.atom.predicate;
      if (derived.count(pred) == 0 && seen.insert(pred).second) {
        out.push_back(pred);
      }
    }
  }
  return out;
}

void LoadReferencedRelations(const Program& program, const KnowledgeBase& kb,
                             Database* db, SnapshotCache* cache) {
  for (const std::string& pred : ReferencedRelations(program)) {
    if (cache != nullptr) {
      db->AttachShared(cache->Get(kb, pred));
      continue;
    }
    const Relation* rel = kb.FindRelation(pred);
    if (rel != nullptr) db->LoadRelation(*rel);
  }
}

Result<std::vector<Tuple>> QueryKnowledgeBase(
    const Program& program, const KnowledgeBase& kb,
    const std::string& goal_predicate, const EvalOptions& options,
    SnapshotCache* cache) {
  Database db;
  LoadReferencedRelations(program, kb, &db, cache);
  return Query(program, &db, goal_predicate, options);
}

Result<std::vector<Tuple>> QueryKnowledgeBase(
    const std::string& source, const KnowledgeBase& kb,
    const std::string& goal_predicate, const EvalOptions& options,
    SnapshotCache* cache) {
  Result<Program> program = Parser::Parse(source);
  if (!program.ok()) return program.status();
  return QueryKnowledgeBase(program.value(), kb, goal_predicate, options,
                            cache);
}

}  // namespace vada::datalog
