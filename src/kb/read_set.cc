#include "kb/read_set.h"

#include "kb/knowledge_base.h"

namespace vada {

ReadSetKey::ReadSetKey(const KnowledgeBase& kb, ReadSet reads)
    : reads_(std::move(reads)) {
  versions_.reserve(2 + reads_.relations.size() + reads_.roles.size());
  versions_.push_back(kb.version_epoch());
  if (reads_.whole_kb) {
    versions_.push_back(kb.global_version());
    return;
  }
  for (const std::string& name : reads_.relations) {
    versions_.push_back(kb.relation_version(name));
  }
  for (RelationRole role : reads_.roles) {
    versions_.push_back(kb.catalog().role_version(role));
  }
}

ReadSetKey ReadSetKey::WholeKb(const KnowledgeBase& kb) {
  ReadSet everything;
  everything.whole_kb = true;
  return ReadSetKey(kb, std::move(everything));
}

bool ReadSetKey::Holds(const KnowledgeBase& kb) const {
  if (versions_.empty() || versions_[0] != kb.version_epoch()) return false;
  if (reads_.whole_kb) return versions_[1] == kb.global_version();
  size_t i = 1;
  for (const std::string& name : reads_.relations) {
    if (kb.relation_version(name) != versions_[i++]) return false;
  }
  for (RelationRole role : reads_.roles) {
    if (kb.catalog().role_version(role) != versions_[i++]) return false;
  }
  return true;
}

}  // namespace vada
