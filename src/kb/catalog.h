#ifndef VADA_KB_CATALOG_H_
#define VADA_KB_CATALOG_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace vada {

struct ReadSet;

/// The role a relation plays in the wrangling process. Roles are what
/// transducer input dependencies quantify over ("source schemas exist",
/// "the target has reference data", ...), mirroring the paper's user
/// context / data context / source / target distinction.
enum class RelationRole {
  kSource = 0,      ///< extracted source data (e.g. Rightmove)
  kTarget,          ///< the user-declared target schema
  kReference,       ///< data context: reference data (complete value lists)
  kMaster,          ///< data context: master data (entities of interest)
  kExample,         ///< data context: example instances
  kMetadata,        ///< transducer-produced metadata (matches, metrics, ...)
  kResult,          ///< wrangled result instances
};

/// Number of RelationRole values.
inline constexpr size_t kRelationRoleCount = 7;

const char* RelationRoleName(RelationRole role);

/// Inverse of RelationRoleName; kParseError for unknown names.
Result<RelationRole> RelationRoleFromName(const std::string& name);

/// Observer of catalog role changes. The durability layer implements
/// this to write-ahead-log role mutations without touching the many
/// `kb.catalog().SetRole(...)` call sites. Snapshot()/Restore() — the
/// WriteGuard rollback path — deliberately bypass the listener: a
/// rollback is not new history, it un-happens logged history.
class CatalogListener {
 public:
  virtual ~CatalogListener() = default;
  virtual void OnRoleSet(const std::string& relation_name,
                         RelationRole role) = 0;
  virtual void OnRoleRemoved(const std::string& relation_name) = 0;
};

/// Registry mapping relation names to their wrangling role. Owned by the
/// KnowledgeBase; separate so it can be inspected/tested in isolation.
///
/// Each role has a version that moves whenever a relation enters or
/// leaves the role, so a reader that listed a role's relations can tell
/// whether the list is still current (ReadSetKey). While the owning KB
/// records accesses, the catalog records into the same log: listing a
/// role records the role, setting a role records the relation, and any
/// other query records a whole-KB read.
class Catalog {
 public:
  void SetRole(const std::string& relation_name, RelationRole role);
  /// Records a whole-KB read (see class comment).
  std::optional<RelationRole> GetRole(const std::string& relation_name) const;
  void Remove(const std::string& relation_name);

  /// At most one listener; nullptr detaches. Only effective mutations
  /// notify (SetRole to the current role and Remove of an absent entry
  /// are silent no-ops).
  void SetListener(CatalogListener* listener) { listener_ = listener; }

  /// Relation names with the given role, sorted. Records the role.
  std::vector<std::string> RelationsWithRole(RelationRole role) const;

  /// Version of `role`'s membership; never decreases, not even across
  /// Restore. Records the role.
  uint64_t role_version(RelationRole role) const;

  /// True if `relation_name` provides data-context information
  /// (reference, master or example role). Records a whole-KB read.
  bool IsDataContext(const std::string& relation_name) const;

  /// Point-in-time copy of / wholesale replacement for the role map.
  /// Used by WriteGuard to roll the catalog back together with the
  /// relations it describes.
  std::map<std::string, RelationRole> Snapshot() const { return roles_; }
  /// Moves the version of every role whose membership differs.
  void Restore(std::map<std::string, RelationRole> roles);

 private:
  friend class KnowledgeBase;
  friend class ReadSetKey;  // compares role versions without recording

  void BumpRole(RelationRole role) {
    ++role_versions_[static_cast<size_t>(role)];
  }

  std::map<std::string, RelationRole> roles_;
  std::array<uint64_t, kRelationRoleCount> role_versions_{};
  CatalogListener* listener_ = nullptr;  // not owned
  ReadSet* access_log_ = nullptr;        // the owning KB's; not owned
};

}  // namespace vada

#endif  // VADA_KB_CATALOG_H_
