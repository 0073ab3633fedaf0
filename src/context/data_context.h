#ifndef VADA_CONTEXT_DATA_CONTEXT_H_
#define VADA_CONTEXT_DATA_CONTEXT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/catalog.h"
#include "kb/relation.h"

namespace vada {

/// A correspondence between a target-schema attribute and an attribute of
/// a data-context relation (e.g. Target.postcode ~ Address.postcode).
struct ContextCorrespondence {
  std::string target_attribute;
  std::string context_attribute;
};

/// One association of the target schema with a data-context data set
/// (paper §2.2: reference data, master data, or example data).
struct DataContextBinding {
  std::string context_relation;
  RelationRole kind = RelationRole::kReference;  // reference/master/example
  std::vector<ContextCorrespondence> correspondences;
};

/// The paper's data context: domain data the user associates with the
/// target schema to inform wrangling — complete value lists (reference),
/// entities of interest (master), or sample instances (example). CFD
/// learning, instance matching and accuracy estimation all key off it.
class DataContext {
 public:
  DataContext() = default;

  /// Registers a binding. `kind` must be kReference, kMaster or kExample.
  /// A context relation has one binding per kind: a binding for a
  /// (relation, kind) pair already bound adds its correspondences to the
  /// existing one, skipping those it already has.
  Status AddBinding(DataContextBinding binding);

  const std::vector<DataContextBinding>& bindings() const { return bindings_; }
  bool empty() const { return bindings_.empty(); }

  /// Bindings of a given kind.
  std::vector<const DataContextBinding*> BindingsOfKind(
      RelationRole kind) const;

  /// The context attribute corresponding to `target_attribute` in
  /// `context_relation`, if bound.
  std::optional<std::string> ContextAttributeFor(
      const std::string& context_relation,
      const std::string& target_attribute) const;

  /// All bindings that cover `target_attribute` (any kind).
  std::vector<const DataContextBinding*> BindingsCovering(
      const std::string& target_attribute) const;

  /// Renders as KB relation data_context(context_relation, kind,
  /// target_attribute, context_attribute), one row per correspondence.
  Relation ToRelation(const std::string& relation_name = "data_context") const;

  /// Decodes a relation ToRelation produced, keeping binding and
  /// correspondence order: the rows of one (context relation, kind) pair
  /// form one binding, as in AddBinding.
  static Result<DataContext> FromRelation(const Relation& relation);

 private:
  std::vector<DataContextBinding> bindings_;
};

}  // namespace vada

#endif  // VADA_CONTEXT_DATA_CONTEXT_H_
