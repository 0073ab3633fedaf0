#ifndef VADA_KB_WRITE_GUARD_H_
#define VADA_KB_WRITE_GUARD_H_

#include <map>
#include <optional>
#include <string>

#include "kb/catalog.h"
#include "kb/knowledge_base.h"
#include "kb/relation.h"

namespace vada {

/// Transactional write-guard over a KnowledgeBase (DESIGN.md §5d).
///
/// While a guard is active, the knowledge base saves every relation's
/// pre-image lazily on its first mutation: a relation replaced wholesale
/// (ReplaceRelation*) hands its old contents over by move, and one
/// mutated in place (Insert, Retract, ClearRelation, InsertAll, drops)
/// is copied.
/// Rollback() restores the KB *exactly* as it was at construction —
/// relation contents and row order, per-relation and global version
/// counters, the facts_added/facts_removed lifetime counters, and the
/// catalog roles — so a failed or timed-out transducer Execute() leaves
/// no trace in the KB. A touched relation whose version did not move
/// holds its pre-image's rows already and is left in place. The
/// orchestrator wraps every Execute() in a guard and commits only on
/// success.
///
///   {
///     WriteGuard guard(&kb);
///     Status s = transducer->Execute(&kb, &ctx);
///     if (s.ok()) guard.Commit();
///     // else: destructor (or explicit Rollback()) undoes every write
///   }
///
/// The destructor rolls back unless Commit() was called — the safe
/// default when Execute() exits through an error path.
///
/// Pre-conditions: at most one guard per KnowledgeBase at a time (guards
/// do not nest), and the KB must not be moved or destroyed while a guard
/// is active.
class WriteGuard {
 public:
  explicit WriteGuard(KnowledgeBase* kb);
  ~WriteGuard();

  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

  /// Keeps all writes since construction; the guard becomes inert.
  void Commit();

  /// Restores the KB to its state at construction; the guard becomes
  /// inert. Idempotent; a no-op after Commit().
  void Rollback();

  /// Whether the guard still watches the KB (no Commit/Rollback yet).
  bool active() const { return !done_; }

  /// Number of relations snapshotted so far (touched by a mutation).
  size_t touched_relations() const { return touched_.size(); }

 private:
  friend class KnowledgeBase;

  /// Called by the KB right before any in-place mutation of `relation`;
  /// saves a copy of the relation's pre-image on first touch (or records
  /// its absence so a created relation is dropped again on rollback).
  void OnMutation(const std::string& relation);

  /// Called by the KB right before it move-assigns new contents into
  /// `*current`, the KB's relation `relation`: on first touch, moves the
  /// old contents into the pre-image instead of copying them.
  void OnReplace(const std::string& relation, Relation* current);

  KnowledgeBase* kb_;
  bool done_ = false;
  uint64_t global_version_ = 0;
  uint64_t facts_added_ = 0;
  uint64_t facts_removed_ = 0;
  std::map<std::string, KnowledgeBase::Versions> versions_;
  std::map<std::string, RelationRole> roles_;
  /// Pre-images of touched relations; nullopt = did not exist.
  std::map<std::string, std::optional<Relation>> touched_;
};

}  // namespace vada

#endif  // VADA_KB_WRITE_GUARD_H_
