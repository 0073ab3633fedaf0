#include "quality/metrics.h"

namespace vada {

std::string RelationQuality::ToString() const {
  std::string out =
      "quality over " + std::to_string(row_count) + " rows:\n";
  for (const auto& [attr, q] : attribute) {
    char buf[128];
    if (q.accuracy.has_value()) {
      std::snprintf(buf, sizeof(buf), "  %s: completeness %.3f accuracy %.3f\n",
                    attr.c_str(), q.completeness, *q.accuracy);
    } else {
      std::snprintf(buf, sizeof(buf), "  %s: completeness %.3f\n", attr.c_str(),
                    q.completeness);
    }
    out += buf;
  }
  if (consistency.has_value()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  consistency %.3f\n", *consistency);
    out += buf;
  }
  return out;
}

Relation QualityMetricsToRelation(const std::vector<QualityMetricFact>& facts,
                                  const std::string& relation_name) {
  Relation rel(Schema::Untyped(relation_name,
                               {"entity", "metric", "subject", "value"}));
  for (const QualityMetricFact& f : facts) {
    rel.InsertUnchecked(Tuple({Value::String(f.entity), Value::String(f.metric),
                               Value::String(f.subject),
                               Value::Double(f.value)}));
  }
  return rel;
}

Result<std::vector<QualityMetricFact>> QualityMetricsFromRelation(
    const Relation& rel) {
  if (rel.schema().arity() != 4) {
    return Status::InvalidArgument("quality_metric relation must have arity 4");
  }
  std::vector<QualityMetricFact> out;
  for (const Tuple& t : rel.rows()) {
    QualityMetricFact f;
    f.entity = t.at(0).ToString();
    f.metric = t.at(1).ToString();
    f.subject = t.at(2).ToString();
    std::optional<double> v = t.at(3).AsDouble();
    if (!v.has_value()) {
      return Status::InvalidArgument("quality_metric value not numeric: " +
                                     t.ToString());
    }
    f.value = *v;
    out.push_back(std::move(f));
  }
  return out;
}

namespace {

/// Whether `v`'s display form is in `values`; a string is probed as it
/// is, without a copy.
bool Confirmed(const std::unordered_set<std::string>& values, const Value& v) {
  if (v.type() == ValueType::kString) return values.count(v.string_value()) > 0;
  return values.count(v.ToString()) > 0;
}

}  // namespace

void QualityEstimator::SetReference(
    const Relation* reference_data,
    std::vector<ContextCorrespondence> correspondences) {
  reference_columns_.clear();
  if (reference_data == nullptr) return;
  for (const ContextCorrespondence& c : correspondences) {
    std::optional<size_t> ref_idx =
        reference_data->schema().AttributeIndex(c.context_attribute);
    if (!ref_idx.has_value()) continue;
    ReferenceColumn column{c.target_attribute, {}};
    for (const Tuple& row : reference_data->rows()) {
      const Value& v = row.at(*ref_idx);
      if (!v.is_null()) column.values.insert(v.ToString());
    }
    reference_columns_.push_back(std::move(column));
  }
}

void QualityEstimator::SetChecker(const CfdChecker* checker) {
  owned_checker_.reset();
  checker_ = checker;
}

void QualityEstimator::SetCfds(std::vector<Cfd> cfds,
                               const Relation* evidence) {
  owned_checker_ = std::make_unique<CfdChecker>(std::move(cfds), evidence);
  checker_ = owned_checker_.get();
}

void QualityEstimator::SetMaster(
    const Relation* master_data,
    std::vector<ContextCorrespondence> correspondences) {
  master_targets_.clear();
  master_keys_.reset();
  if (master_data == nullptr || correspondences.empty()) return;
  std::vector<size_t> master_idx;
  for (const ContextCorrespondence& c : correspondences) {
    std::optional<size_t> i =
        master_data->schema().AttributeIndex(c.context_attribute);
    if (!i.has_value()) {
      master_targets_.clear();
      return;
    }
    master_idx.push_back(*i);
    master_targets_.push_back(c.target_attribute);
  }
  std::unordered_set<Tuple, TupleHash>& keys = master_keys_.emplace();
  for (const Tuple& row : master_data->rows()) {
    keys.insert(row.Project(master_idx));
  }
}

RelationQuality QualityEstimator::Estimate(const Relation& data) const {
  RelationQuality out;
  out.row_count = data.size();

  for (const Attribute& attr : data.schema().attributes()) {
    AttributeQuality q;
    Result<double> comp = data.NonNullFraction(attr.name);
    q.completeness = comp.ok() ? comp.value() : 0.0;

    // Accuracy: fraction of non-null values present in the reference
    // column, when a correspondence covers this attribute.
    for (const ReferenceColumn& column : reference_columns_) {
      if (column.target_attribute != attr.name) continue;
      const size_t data_idx = *data.schema().AttributeIndex(attr.name);
      size_t non_null = 0;
      size_t confirmed = 0;
      for (const Tuple& row : data.rows()) {
        const Value& v = row.at(data_idx);
        if (v.is_null()) continue;
        ++non_null;
        if (Confirmed(column.values, v)) ++confirmed;
      }
      q.accuracy = (non_null == 0) ? 1.0
                                   : static_cast<double>(confirmed) /
                                         static_cast<double>(non_null);
      break;
    }
    out.attribute[attr.name] = q;
  }

  if (checker_ != nullptr) {
    out.consistency = checker_->ConsistencyScore(data);
  }

  // Relevance against master data: joint match on all corresponded
  // attributes present in both schemas.
  if (master_keys_.has_value() && !data.empty()) {
    std::vector<size_t> data_idx;
    for (const std::string& a : master_targets_) {
      std::optional<size_t> i = data.schema().AttributeIndex(a);
      if (!i.has_value()) break;
      data_idx.push_back(*i);
    }
    if (data_idx.size() == master_targets_.size()) {
      // One key reused for every row (see CfdChecker::FindViolations).
      Tuple key(std::vector<Value>(data_idx.size()));
      size_t relevant = 0;
      for (const Tuple& row : data.rows()) {
        bool has_null = false;
        for (size_t k = 0; k < data_idx.size(); ++k) {
          const Value& v = row.at(data_idx[k]);
          if (v.is_null()) {
            has_null = true;
            break;
          }
          key[k] = v;
        }
        if (!has_null && master_keys_->count(key) > 0) ++relevant;
      }
      out.relevance =
          static_cast<double>(relevant) / static_cast<double>(data.size());
    }
  }
  return out;
}

std::vector<QualityMetricFact> QualityEstimator::EstimateFacts(
    const Relation& data, const std::string& entity_name) const {
  RelationQuality q = Estimate(data);
  std::vector<QualityMetricFact> out;
  for (const auto& [attr, aq] : q.attribute) {
    out.push_back(
        QualityMetricFact{entity_name, "completeness", attr, aq.completeness});
    if (aq.accuracy.has_value()) {
      out.push_back(
          QualityMetricFact{entity_name, "accuracy", attr, *aq.accuracy});
    }
  }
  if (q.consistency.has_value()) {
    out.push_back(
        QualityMetricFact{entity_name, "consistency", "", *q.consistency});
  }
  if (q.relevance.has_value()) {
    out.push_back(
        QualityMetricFact{entity_name, "relevance", "", *q.relevance});
  }
  return out;
}

}  // namespace vada
