#include "kb/knowledge_base.h"

#include "kb/durability.h"
#include "kb/write_guard.h"

namespace vada {

void KnowledgeBase::Bump(const std::string& name) {
  // Per-relation versions are allocated from the global counter instead
  // of counting independently, so they are unique across a relation's
  // whole history: a relation that is dropped (which erases its version
  // entry) and later recreated can never land on a version number it
  // already used. Version-keyed consumers — the dependency-scan
  // snapshot cache — rely on this to treat (name, version) as an
  // immutable content key.
  versions_[name].rows = ++global_version_;
}

void KnowledgeBase::WillMutate(const std::string& name) {
  if (guard_ != nullptr) guard_->OnMutation(name);
}

Status KnowledgeBase::CreateRelation(Schema schema) {
  VADA_RETURN_IF_ERROR(schema.Validate());
  const std::string name = schema.relation_name();
  Touch(name);
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  WillMutate(name);
  auto emplaced = relations_.emplace(name, Relation(std::move(schema)));
  Bump(name);
  versions_[name].schema = global_version_;
  if (durability_ != nullptr) {
    durability_->LogCreateRelation(emplaced.first->second.schema());
  }
  return Status::OK();
}

Status KnowledgeBase::EnsureRelation(const Schema& schema) {
  Touch(schema.relation_name());
  auto it = relations_.find(schema.relation_name());
  if (it == relations_.end()) return CreateRelation(schema);
  if (!(it->second.schema() == schema)) {
    return Status::FailedPrecondition(
        "relation " + schema.relation_name() +
        " exists with a different schema: " + it->second.schema().ToString() +
        " vs " + schema.ToString());
  }
  return Status::OK();
}

bool KnowledgeBase::HasRelation(const std::string& name) const {
  Touch(name);
  return relations_.count(name) > 0;
}

const Relation* KnowledgeBase::FindRelation(const std::string& name) const {
  Touch(name);
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<const Relation*> KnowledgeBase::GetRelation(
    const std::string& name) const {
  const Relation* rel = FindRelation(name);
  if (rel == nullptr) {
    return Status::NotFound("relation " + name + " not in knowledge base");
  }
  return rel;
}

const Schema* KnowledgeBase::FindSchema(const std::string& name) const {
  TouchSchema(name);
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second.schema();
}

Status KnowledgeBase::Insert(const std::string& relation_name, Tuple tuple) {
  Touch(relation_name);
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  WillMutate(relation_name);
  // The insert consumes `tuple`; keep a copy only when it must be logged.
  Tuple logged;
  if (durability_ != nullptr) logged = tuple;
  bool added = false;
  VADA_RETURN_IF_ERROR(it->second.Insert(std::move(tuple), &added));
  if (added) {
    ++facts_added_;
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogInsert(relation_name, logged);
  }
  return Status::OK();
}

Status KnowledgeBase::Assert(const std::string& relation_name,
                             std::initializer_list<Value> values) {
  return Insert(relation_name, Tuple(values));
}

Status KnowledgeBase::InsertAll(const Relation& relation) {
  // All or nothing: every row is checked before anything is created or
  // inserted, so a type error leaves the KB, its versions and the logs
  // as they were. The KB's relation, when present, has this very schema.
  VADA_RETURN_IF_ERROR(relation.TypeCheck());
  VADA_RETURN_IF_ERROR(EnsureRelation(relation.schema()));
  WillMutate(relation.name());
  auto it = relations_.find(relation.name());
  bool any = false;
  for (const Tuple& row : relation.rows()) {
    bool added = false;
    VADA_RETURN_IF_ERROR(it->second.InsertUnchecked(row, &added));
    if (added) {
      ++facts_added_;
      if (durability_ != nullptr) durability_->LogInsert(relation.name(), row);
    }
    any = any || added;
  }
  if (any) Bump(relation.name());
  return Status::OK();
}

Status KnowledgeBase::Retract(const std::string& relation_name,
                              const Tuple& tuple) {
  Touch(relation_name);
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  WillMutate(relation_name);
  if (it->second.Erase(tuple)) {
    ++facts_removed_;
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogRetract(relation_name, tuple);
  }
  return Status::OK();
}

Status KnowledgeBase::ClearRelation(const std::string& relation_name) {
  Touch(relation_name);
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  if (!it->second.empty()) {
    WillMutate(relation_name);
    facts_removed_ += it->second.size();
    it->second.Clear();
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogClear(relation_name);
  }
  return Status::OK();
}

Status KnowledgeBase::DropRelation(const std::string& name) {
  Touch(name);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + name + " not in knowledge base");
  }
  WillMutate(name);
  facts_removed_ += it->second.size();
  relations_.erase(it);
  versions_.erase(name);
  // Catalog.Remove notifies the durability listener itself (a
  // kCatalogRole tombstone), then the drop record follows it.
  catalog_.Remove(name);
  ++global_version_;
  if (durability_ != nullptr) durability_->LogDrop(name);
  return Status::OK();
}

Status KnowledgeBase::ReplaceRelation(Relation relation) {
  Touch(relation.name());
  auto it = relations_.find(relation.name());
  if (it == relations_.end()) {
    VADA_RETURN_IF_ERROR(CreateRelation(relation.schema()));
    it = relations_.find(relation.name());
  } else if (!(it->second.schema() == relation.schema())) {
    return Status::FailedPrecondition(
        "relation " + relation.name() + " exists with a different schema");
  }
  const std::string& name = it->first;
  facts_removed_ += it->second.size();
  facts_added_ += relation.size();
  // An active guard takes the old relation as its pre-image (on first
  // touch); the new one is move-assigned into the same map node, so
  // pointers from FindRelation stay valid and show the new rows.
  if (guard_ != nullptr) guard_->OnReplace(name, &it->second);
  it->second = std::move(relation);
  Bump(name);
  if (durability_ != nullptr) {
    // Logical form of a replace: clear, then the new row set. The
    // relation's creation (when it was absent) was logged above by
    // CreateRelation.
    durability_->LogClear(name);
    for (const Tuple& row : it->second.rows()) {
      durability_->LogInsert(name, row);
    }
  }
  return Status::OK();
}

Status KnowledgeBase::ReplaceRelationIfChanged(Relation relation,
                                               bool* changed) {
  // Recorded even when nothing changes: the caller's output stays in its
  // read set, so a later write by anyone else re-enables the caller.
  Touch(relation.name());
  auto it = relations_.find(relation.name());
  if (it != relations_.end() && it->second.schema() == relation.schema() &&
      it->second.SameRows(relation)) {
    if (changed != nullptr) *changed = false;
    return Status::OK();
  }
  if (changed != nullptr) *changed = true;
  return ReplaceRelation(std::move(relation));
}

uint64_t KnowledgeBase::relation_version(const std::string& name) const {
  Touch(name);
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second.rows;
}

uint64_t KnowledgeBase::schema_version(const std::string& name) const {
  TouchSchema(name);
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second.schema;
}

size_t KnowledgeBase::TotalRows() const {
  if (access_log_ != nullptr) access_log_->whole_kb = true;
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::vector<std::string> KnowledgeBase::RelationNames() const {
  if (access_log_ != nullptr) access_log_->whole_kb = true;
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

}  // namespace vada
