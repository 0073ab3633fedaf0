#ifndef VADA_KB_KNOWLEDGE_BASE_H_
#define VADA_KB_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/catalog.h"
#include "kb/read_set.h"
#include "kb/relation.h"

namespace vada {

class DurabilityManager;
class WriteGuard;

/// The VADA Knowledge Base (paper §2): the repository for all data of
/// relevance to the wrangling process — extensional source data, the
/// target schema, data context, user context, feedback, and the metadata
/// transducers create (matches, mappings, quality metrics, traces).
///
/// Every successful mutation bumps both a per-relation version and a
/// global version. The orchestrator uses versions to decide when a
/// transducer's input dependencies may have newly become satisfiable,
/// which is how "a transducer ... becomes available for execution when
/// that data is available in the knowledge base" is realised.
///
/// While an access log is attached (RecordAccesses), the KB records in it
/// every relation a caller looks up — FindRelation, GetRelation,
/// HasRelation, relation_version, EnsureRelation — or mutates, including
/// a ReplaceRelationIfChanged that changes nothing. FindSchema and
/// schema_version record a read of the schema alone, which row writes do
/// not move. RelationNames() and TotalRows() record a whole-KB read. The
/// orchestrator keys each transducer on what its last step recorded
/// (DESIGN.md §5n).
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  // Not copyable (relations can be large; copies are almost always bugs).
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  // Movable, but never while a WriteGuard is active (the guard keeps a
  // back-pointer; see write_guard.h).
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;

  /// Creates an empty relation; fails with kAlreadyExists if present.
  Status CreateRelation(Schema schema);

  /// Creates the relation if absent; fails with kFailedPrecondition if a
  /// relation with the same name but different schema exists.
  Status EnsureRelation(const Schema& schema);

  bool HasRelation(const std::string& name) const;

  /// Read access; nullptr when absent.
  const Relation* FindRelation(const std::string& name) const;

  /// Read access with error reporting.
  Result<const Relation*> GetRelation(const std::string& name) const;

  /// The relation's schema; nullptr when absent. Records a schema read
  /// (see schema_version), so a caller that needs only attribute names
  /// is not re-run when rows change.
  const Schema* FindSchema(const std::string& name) const;

  /// Inserts one tuple; bumps versions only when the tuple is new.
  Status Insert(const std::string& relation_name, Tuple tuple);

  /// Convenience for short control facts:
  ///   kb.Assert("match", {Value::String("a"), Value::String("b")});
  Status Assert(const std::string& relation_name,
                std::initializer_list<Value> values);

  /// Ensures `relation.schema()` exists and inserts all rows. All or
  /// nothing: when a row fails the type check, nothing is created or
  /// inserted and no version moves.
  Status InsertAll(const Relation& relation);

  /// Removes one tuple; bumps versions when the tuple was present.
  Status Retract(const std::string& relation_name, const Tuple& tuple);

  /// Removes all rows of `relation_name` (schema stays registered).
  Status ClearRelation(const std::string& relation_name);

  /// Removes the relation, its versions and its catalog role.
  Status DropRelation(const std::string& name);

  /// Replaces the contents of `relation.name()` with `relation`'s rows
  /// (creating it if needed). Single version bump.
  ///
  /// Takes ownership: writers hand over a freshly built relation with
  /// std::move, and the KB move-assigns it into the map node of the old
  /// relation, so no row is copied and a `const Relation*` from
  /// FindRelation keeps pointing at the (new) contents. An active
  /// WriteGuard receives the old relation by move as its pre-image.
  Status ReplaceRelation(Relation relation);

  /// Like ReplaceRelation but bumps versions only when the row set (or
  /// schema) actually differs. Transducers use this so that re-running on
  /// unchanged inputs is a no-op — the convergence condition of the
  /// dynamic orchestrator. Sets `*changed` (optional) accordingly. Takes
  /// ownership like ReplaceRelation; an unchanged `relation` is simply
  /// destroyed, and the KB keeps its own row order.
  Status ReplaceRelationIfChanged(Relation relation, bool* changed = nullptr);

  /// Version counters: 0 for unknown relations; bumped on every mutation.
  uint64_t relation_version(const std::string& name) const;
  uint64_t global_version() const { return global_version_; }

  /// The version `name` was created at, 0 when absent. A relation's
  /// schema is fixed until it is dropped (ReplaceRelation and
  /// EnsureRelation refuse another schema), so within one version epoch
  /// this names the schema; row writes do not move it.
  uint64_t schema_version(const std::string& name) const;

  /// Incremented whenever a WriteGuard rollback rewinds the global
  /// version. Versions above the rewound point are handed out again
  /// afterwards, so (relation, version) names one content only within an
  /// epoch; version-keyed memos store the epoch alongside.
  uint64_t version_epoch() const { return version_epoch_; }

  /// Monotonic lifetime mutation counters. Observability layers diff them
  /// around an operation to attribute KB churn (e.g. facts added per
  /// orchestration step). Replace counts as remove-all + add-all, so for
  /// replaced relations these are upper bounds on the logical change.
  uint64_t facts_added() const { return facts_added_; }
  uint64_t facts_removed() const { return facts_removed_; }

  /// Total rows across all relations. Records a whole-KB read.
  size_t TotalRows() const;

  /// All relation names, sorted. Records a whole-KB read.
  std::vector<std::string> RelationNames() const;

  /// Attaches (nullptr: detaches) the log that records what callers read
  /// and write, the catalog's accesses included (see the class comment).
  /// Not owned. Attach only while no other thread uses this KB.
  void RecordAccesses(ReadSet* log) {
    access_log_ = log;
    catalog_.access_log_ = log;
  }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Whether a WriteGuard currently watches this KB (mutations are being
  /// snapshotted for possible rollback).
  bool HasActiveGuard() const { return guard_ != nullptr; }

  /// Attaches (nullptr: detaches) the durability manager that write-ahead
  /// logs this KB's mutations (kb/durability.h). Not owned; the manager
  /// detaches itself on destruction. Effective mutations notify it right
  /// after they succeed, so the log holds exactly the applied changes.
  void AttachDurability(DurabilityManager* durability) {
    durability_ = durability;
  }
  DurabilityManager* durability() const { return durability_; }

 private:
  friend class WriteGuard;
  friend class ReadSetKey;  // compares versions without recording

  void Bump(const std::string& name);

  /// Records `name` in the attached access log, if any.
  void Touch(const std::string& name) const {
    if (access_log_ != nullptr) access_log_->relations.insert(name);
  }
  /// Records a read of `name`'s schema alone.
  void TouchSchema(const std::string& name) const {
    if (access_log_ != nullptr) access_log_->schemas.insert(name);
  }

  /// Mutation hook: every in-place mutating method calls this with the
  /// relation about to change, before changing it, so an active
  /// WriteGuard can copy the pre-image (copy-on-write rollback; see
  /// write_guard.h). ReplaceRelation hands the guard the old relation by
  /// move instead (WriteGuard::OnReplace).
  void WillMutate(const std::string& name);

  /// A relation's versions: `rows` moves with every mutation, `schema` is
  /// the version the relation was created at.
  struct Versions {
    uint64_t rows = 0;
    uint64_t schema = 0;
  };

  std::map<std::string, Relation> relations_;
  std::map<std::string, Versions> versions_;
  uint64_t global_version_ = 0;
  uint64_t version_epoch_ = 0;  // never restored by a rollback
  uint64_t facts_added_ = 0;
  uint64_t facts_removed_ = 0;
  Catalog catalog_;
  WriteGuard* guard_ = nullptr;  // active transaction guard; not owned
  DurabilityManager* durability_ = nullptr;  // WAL hook; not owned
  ReadSet* access_log_ = nullptr;  // see RecordAccesses; not owned
};

}  // namespace vada

#endif  // VADA_KB_KNOWLEDGE_BASE_H_
