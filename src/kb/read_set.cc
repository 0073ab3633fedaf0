#include "kb/read_set.h"

#include "kb/knowledge_base.h"

namespace vada {

void ReadSet::Merge(const ReadSet& other) {
  relations.insert(other.relations.begin(), other.relations.end());
  schemas.insert(other.schemas.begin(), other.schemas.end());
  roles.insert(other.roles.begin(), other.roles.end());
  whole_kb = whole_kb || other.whole_kb;
}

ReadSetKey::ReadSetKey(const KnowledgeBase& kb, ReadSet reads)
    : reads_(std::move(reads)) {
  versions_.reserve(2 + reads_.relations.size() + reads_.schemas.size() +
                    reads_.roles.size());
  versions_.push_back(kb.version_epoch());
  if (reads_.whole_kb) {
    versions_.push_back(kb.global_version());
    return;
  }
  for (const std::string& name : reads_.relations) {
    versions_.push_back(kb.relation_version(name));
  }
  for (const std::string& name : reads_.schemas) {
    versions_.push_back(kb.schema_version(name));
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
  auto versions = [&kb](const std::string& name) {
    auto it = kb.versions_.find(name);
    return it == kb.versions_.end() ? KnowledgeBase::Versions()
                                    : it->second;
  };
  if (reads_.whole_kb) {
    if (versions_[1] != kb.global_version()) return false;
  } else {
    size_t i = 1;
    for (const std::string& name : reads_.relations) {
      if (versions(name).rows != versions_[i++]) return false;
    }
    for (const std::string& name : reads_.schemas) {
      if (versions(name).schema != versions_[i++]) return false;
    }
    for (RelationRole role : reads_.roles) {
      const size_t r = static_cast<size_t>(role);
      if (kb.catalog_.role_versions_[r] != versions_[i++]) return false;
    }
  }
  if (kb.access_log_ != nullptr) kb.access_log_->Merge(reads_);
  return true;
}

size_t ReadSetKey::ApproxBytes() const {
  // A set node holds its value plus about four words of links and colour.
  constexpr size_t kNode = 4 * sizeof(void*);
  size_t bytes = sizeof(*this) + versions_.capacity() * sizeof(uint64_t) +
                 reads_.roles.size() * (sizeof(RelationRole) + kNode);
  for (const std::set<std::string>* names :
       {&reads_.relations, &reads_.schemas}) {
    for (const std::string& name : *names) {
      bytes += sizeof(name) + name.capacity() + kNode;
    }
  }
  return bytes;
}

}  // namespace vada
