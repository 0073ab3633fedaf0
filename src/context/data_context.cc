#include "context/data_context.h"

namespace vada {

Status DataContext::AddBinding(DataContextBinding binding) {
  if (binding.kind != RelationRole::kReference &&
      binding.kind != RelationRole::kMaster &&
      binding.kind != RelationRole::kExample) {
    return Status::InvalidArgument(
        "data context kind must be reference, master or example");
  }
  if (binding.context_relation.empty()) {
    return Status::InvalidArgument("data context binding names no relation");
  }
  if (binding.correspondences.empty()) {
    return Status::InvalidArgument(
        "data context binding for " + binding.context_relation +
        " has no attribute correspondences");
  }
  DataContextBinding* into = nullptr;
  for (DataContextBinding& b : bindings_) {
    if (b.context_relation == binding.context_relation &&
        b.kind == binding.kind) {
      into = &b;
      break;
    }
  }
  if (into == nullptr) {
    bindings_.push_back(
        DataContextBinding{binding.context_relation, binding.kind, {}});
    into = &bindings_.back();
  }
  for (ContextCorrespondence& c : binding.correspondences) {
    bool known = false;
    for (const ContextCorrespondence& k : into->correspondences) {
      known = known || (k.target_attribute == c.target_attribute &&
                        k.context_attribute == c.context_attribute);
    }
    if (!known) into->correspondences.push_back(std::move(c));
  }
  return Status::OK();
}

std::vector<const DataContextBinding*> DataContext::BindingsOfKind(
    RelationRole kind) const {
  std::vector<const DataContextBinding*> out;
  for (const DataContextBinding& b : bindings_) {
    if (b.kind == kind) out.push_back(&b);
  }
  return out;
}

std::optional<std::string> DataContext::ContextAttributeFor(
    const std::string& context_relation,
    const std::string& target_attribute) const {
  for (const DataContextBinding& b : bindings_) {
    if (b.context_relation != context_relation) continue;
    for (const ContextCorrespondence& c : b.correspondences) {
      if (c.target_attribute == target_attribute) return c.context_attribute;
    }
  }
  return std::nullopt;
}

std::vector<const DataContextBinding*> DataContext::BindingsCovering(
    const std::string& target_attribute) const {
  std::vector<const DataContextBinding*> out;
  for (const DataContextBinding& b : bindings_) {
    for (const ContextCorrespondence& c : b.correspondences) {
      if (c.target_attribute == target_attribute) {
        out.push_back(&b);
        break;
      }
    }
  }
  return out;
}

Relation DataContext::ToRelation(const std::string& relation_name) const {
  Relation rel(Schema::Untyped(
      relation_name,
      {"context_relation", "kind", "target_attribute", "context_attribute"}));
  for (const DataContextBinding& b : bindings_) {
    for (const ContextCorrespondence& c : b.correspondences) {
      rel.InsertUnchecked(Tuple({Value::String(b.context_relation),
                                 Value::String(RelationRoleName(b.kind)),
                                 Value::String(c.target_attribute),
                                 Value::String(c.context_attribute)}));
    }
  }
  return rel;
}

Result<DataContext> DataContext::FromRelation(const Relation& relation) {
  if (relation.schema().arity() != 4) {
    return Status::InvalidArgument("relation " + relation.name() +
                                   " is not a data_context relation");
  }
  DataContext context;
  for (const Tuple& row : relation.rows()) {
    Result<RelationRole> kind = RelationRoleFromName(row.at(1).ToString());
    if (!kind.ok()) return kind.status();
    VADA_RETURN_IF_ERROR(context.AddBinding(DataContextBinding{
        row.at(0).ToString(),
        kind.value(),
        {{row.at(2).ToString(), row.at(3).ToString()}}}));
  }
  return context;
}

}  // namespace vada
