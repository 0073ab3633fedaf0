#include "kb/catalog.h"

#include "kb/read_set.h"

namespace vada {

const char* RelationRoleName(RelationRole role) {
  switch (role) {
    case RelationRole::kSource:
      return "source";
    case RelationRole::kTarget:
      return "target";
    case RelationRole::kReference:
      return "reference";
    case RelationRole::kMaster:
      return "master";
    case RelationRole::kExample:
      return "example";
    case RelationRole::kMetadata:
      return "metadata";
    case RelationRole::kResult:
      return "result";
  }
  return "?";
}

Result<RelationRole> RelationRoleFromName(const std::string& name) {
  for (size_t i = 0; i < kRelationRoleCount; ++i) {
    RelationRole role = static_cast<RelationRole>(i);
    if (name == RelationRoleName(role)) return role;
  }
  return Status::ParseError("unknown relation role " + name);
}

void Catalog::SetRole(const std::string& relation_name, RelationRole role) {
  if (access_log_ != nullptr) access_log_->relations.insert(relation_name);
  auto it = roles_.find(relation_name);
  if (it != roles_.end() && it->second == role) return;
  if (it != roles_.end()) BumpRole(it->second);
  BumpRole(role);
  roles_[relation_name] = role;
  if (listener_ != nullptr) listener_->OnRoleSet(relation_name, role);
}

std::optional<RelationRole> Catalog::GetRole(
    const std::string& relation_name) const {
  if (access_log_ != nullptr) access_log_->whole_kb = true;
  auto it = roles_.find(relation_name);
  if (it == roles_.end()) return std::nullopt;
  return it->second;
}

void Catalog::Remove(const std::string& relation_name) {
  if (access_log_ != nullptr) access_log_->relations.insert(relation_name);
  auto it = roles_.find(relation_name);
  if (it == roles_.end()) return;
  BumpRole(it->second);
  roles_.erase(it);
  if (listener_ != nullptr) listener_->OnRoleRemoved(relation_name);
}

void Catalog::Restore(std::map<std::string, RelationRole> roles) {
  for (const auto& [name, role] : roles_) {
    auto it = roles.find(name);
    if (it == roles.end() || it->second != role) BumpRole(role);
  }
  for (const auto& [name, role] : roles) {
    auto it = roles_.find(name);
    if (it == roles_.end() || it->second != role) BumpRole(role);
  }
  roles_ = std::move(roles);
}

std::vector<std::string> Catalog::RelationsWithRole(RelationRole role) const {
  if (access_log_ != nullptr) access_log_->roles.insert(role);
  std::vector<std::string> out;
  for (const auto& [name, r] : roles_) {
    if (r == role) out.push_back(name);
  }
  return out;
}

uint64_t Catalog::role_version(RelationRole role) const {
  if (access_log_ != nullptr) access_log_->roles.insert(role);
  return role_versions_[static_cast<size_t>(role)];
}

bool Catalog::IsDataContext(const std::string& relation_name) const {
  std::optional<RelationRole> role = GetRole(relation_name);
  return role.has_value() &&
         (*role == RelationRole::kReference || *role == RelationRole::kMaster ||
          *role == RelationRole::kExample);
}

}  // namespace vada
