#ifndef VADA_QUALITY_METRICS_H_
#define VADA_QUALITY_METRICS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "context/data_context.h"
#include "kb/relation.h"
#include "quality/cfd.h"

namespace vada {

/// Estimated quality of one attribute of a relation.
struct AttributeQuality {
  /// Fraction of non-null values.
  double completeness = 1.0;
  /// Fraction of non-null values confirmed by reference data; absent
  /// when no reference covers the attribute.
  std::optional<double> accuracy;
};

/// Estimated quality of a whole relation.
struct RelationQuality {
  std::map<std::string, AttributeQuality> attribute;  ///< by attribute name
  /// 1 - violating-tuple fraction against the available CFDs; absent when
  /// no CFDs are known (paper §2.3: consistency "needs additional
  /// information" — it becomes computable once the data context yields
  /// CFDs).
  std::optional<double> consistency;
  /// Fraction of rows describing entities the user cares about, judged
  /// against master data ("the complete list of properties the user is
  /// interested in", §2.2); absent without a master binding.
  std::optional<double> relevance;
  size_t row_count = 0;

  std::string ToString() const;
};

/// One quality-metric fact destined for the knowledge base:
/// quality_metric(entity, metric, subject, value).
struct QualityMetricFact {
  std::string entity;   ///< relation or mapping id the metric describes
  std::string metric;   ///< "completeness" | "accuracy" | "consistency"
  std::string subject;  ///< attribute name, or "" for whole-entity metrics
  double value = 0.0;
};

/// Renders metric facts as the KB relation that Mapping Selection's
/// input dependency quantifies over (Table 1: "Mapping Selection |
/// Quality Metrics").
Relation QualityMetricsToRelation(
    const std::vector<QualityMetricFact>& facts,
    const std::string& relation_name = "quality_metric");

Result<std::vector<QualityMetricFact>> QualityMetricsFromRelation(
    const Relation& rel);

/// Estimates completeness, accuracy, consistency and relevance of
/// relations.
///
/// Accuracy needs reference data: a value is accurate when its display
/// form (Value::ToString) appears in the corresponding reference column,
/// so Int(3) confirms a reference "3". Consistency needs CFDs, relevance
/// master data. All three inputs are optional — metrics degrade
/// gracefully to completeness only, matching the paper's pay-as-you-go
/// narrative.
///
/// The Set* calls compile their input: SetReference builds one probe set
/// per corresponded reference column and SetMaster the set of master keys,
/// after which the estimator keeps no pointer to either relation. Estimate
/// only probes them, so one estimator serves any number of relations.
/// Move-only.
class QualityEstimator {
 public:
  QualityEstimator() = default;

  /// Provides reference data for accuracy: each correspondence maps a
  /// target attribute to an attribute of `reference_data`; one naming an
  /// attribute `reference_data` lacks is skipped. nullptr measures no
  /// accuracy.
  void SetReference(const Relation* reference_data,
                    std::vector<ContextCorrespondence> correspondences);

  /// Borrows a compiled checker for consistency; nullptr measures none.
  /// `checker` must outlive the estimator.
  void SetChecker(const CfdChecker* checker);

  /// Compiles an owned checker from `cfds` and `evidence` (see CfdChecker)
  /// for consistency.
  void SetCfds(std::vector<Cfd> cfds, const Relation* evidence);

  /// Provides master data for relevance: a row is relevant when the
  /// joint value of all corresponded attributes appears in the master
  /// data (rows with a null in any corresponded attribute are not
  /// counted relevant — the entity cannot be identified). Relevance is
  /// absent when `master_data` is nullptr, there are no correspondences,
  /// or either side lacks a corresponded attribute.
  void SetMaster(const Relation* master_data,
                 std::vector<ContextCorrespondence> correspondences);

  /// Full quality report for `data`.
  RelationQuality Estimate(const Relation& data) const;

  /// Report flattened to KB facts, entity = `entity_name`.
  std::vector<QualityMetricFact> EstimateFacts(
      const Relation& data, const std::string& entity_name) const;

 private:
  /// The display forms of one reference column's non-null values.
  struct ReferenceColumn {
    std::string target_attribute;
    std::unordered_set<std::string> values;
  };

  /// In correspondence order; the first one naming an attribute scores it.
  std::vector<ReferenceColumn> reference_columns_;
  /// Target attributes of the master correspondences, in order, and the
  /// master rows projected onto them; master_keys_ is disengaged when
  /// relevance cannot be measured.
  std::vector<std::string> master_targets_;
  std::optional<std::unordered_set<Tuple, TupleHash>> master_keys_;
  std::unique_ptr<const CfdChecker> owned_checker_;  // from SetCfds
  const CfdChecker* checker_ = nullptr;
};

}  // namespace vada

#endif  // VADA_QUALITY_METRICS_H_
