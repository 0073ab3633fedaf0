#ifndef VADA_DATALOG_KB_ADAPTER_H_
#define VADA_DATALOG_KB_ADAPTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/snapshot_cache.h"
#include "kb/knowledge_base.h"

namespace vada::datalog {

/// Loads every relation of `kb` into `db` (predicate name = relation
/// name). The knowledge base stays the source of truth; the database is
/// a per-evaluation scratch copy, which keeps the reasoner free of
/// mutation hazards against concurrently updated relations.
void LoadKnowledgeBase(const KnowledgeBase& kb, Database* db);

/// The relations `program` reads from a knowledge base: predicates of
/// positive and negated body atoms that no rule of the program derives,
/// each once, in first-use order. A goal query's answer is a function of
/// these relations' contents alone.
std::vector<std::string> ReferencedRelations(const Program& program);

/// Loads only the relations `program` actually reads (ReferencedRelations).
/// Dependency checks and Vadalog transducers run hundreds of times per
/// wrangle, so each evaluation stays proportional to the data it touches
/// instead of the whole knowledge base. With a non-null `cache`, relations are
/// borrowed as shared version-keyed snapshots (see SnapshotCache) —
/// zero copying when the relation has not changed since the last scan —
/// instead of row-by-row copies into `db`.
void LoadReferencedRelations(const Program& program, const KnowledgeBase& kb,
                             Database* db, SnapshotCache* cache = nullptr);

/// Evaluates `program` over a snapshot of `kb` and returns the derived
/// facts for `goal_predicate`, sorted. This is the primitive behind
/// transducer input-dependency checks and Vadalog-specified mappings.
/// `cache`, when non-null, supplies shared relation snapshots (safe to
/// share across concurrent queries; the KB must not be mutated while
/// queries run).
Result<std::vector<Tuple>> QueryKnowledgeBase(
    const Program& program, const KnowledgeBase& kb,
    const std::string& goal_predicate,
    const EvalOptions& options = EvalOptions(),
    SnapshotCache* cache = nullptr);

/// Parses `source`, then QueryKnowledgeBase. Convenience used by the
/// orchestrator, where dependency queries live as text in transducer
/// declarations (paper §2: "input and output dependencies defined as
/// Datalog queries over the knowledge base").
Result<std::vector<Tuple>> QueryKnowledgeBase(
    const std::string& source, const KnowledgeBase& kb,
    const std::string& goal_predicate,
    const EvalOptions& options = EvalOptions(),
    SnapshotCache* cache = nullptr);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_KB_ADAPTER_H_
