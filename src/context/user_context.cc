#include "context/user_context.h"

#include <set>

#include "common/strings.h"
#include "context/ahp.h"

namespace vada {

Result<Importance> ParseImportance(const std::string& phrase) {
  std::string p = ToLower(Trim(phrase));
  // Accept both "very strongly" and "very strongly more important than".
  auto strip = [&p](const char* suffix) {
    std::string s(suffix);
    if (EndsWith(p, s)) p = Trim(p.substr(0, p.size() - s.size()));
  };
  strip("more important than");
  strip("more important");
  if (p == "equally" || p == "equal" || p == "equally important") {
    return Importance::kEqual;
  }
  if (p == "moderately" || p == "moderate") return Importance::kModerate;
  if (p == "strongly" || p == "strong") return Importance::kStrong;
  if (p == "very strongly" || p == "very strong") {
    return Importance::kVeryStrong;
  }
  if (p == "extremely" || p == "extreme" || p == "absolutely") {
    return Importance::kExtreme;
  }
  return Status::InvalidArgument("unknown importance phrase: " + phrase);
}

const char* ImportanceName(Importance level) {
  switch (level) {
    case Importance::kEqual:
      return "equally";
    case Importance::kModerate:
      return "moderately";
    case Importance::kStrong:
      return "strongly";
    case Importance::kVeryStrong:
      return "very strongly";
    case Importance::kExtreme:
      return "extremely";
  }
  return "?";
}

double CriterionWeights::Get(const Criterion& criterion,
                             double fallback) const {
  auto it = weight_of.find(criterion.Id());
  return it == weight_of.end() ? fallback : it->second;
}

void UserContext::AddCriterion(const Criterion& criterion) {
  IndexOf(criterion);
}

int UserContext::IndexOf(const Criterion& criterion) {
  for (size_t i = 0; i < criteria_.size(); ++i) {
    if (criteria_[i] == criterion) return static_cast<int>(i);
  }
  criteria_.push_back(criterion);
  return static_cast<int>(criteria_.size()) - 1;
}

void UserContext::AddStatement(const Criterion& more, const Criterion& less,
                               Importance level) {
  IndexOf(more);
  IndexOf(less);
  statements_.push_back(PairwiseStatement{more, less, level});
}

Status UserContext::AddStatement(const std::string& metric_more,
                                 const std::string& subject_more,
                                 const std::string& level_phrase,
                                 const std::string& metric_less,
                                 const std::string& subject_less) {
  Result<Importance> level = ParseImportance(level_phrase);
  if (!level.ok()) return level.status();
  AddStatement(Criterion{metric_more, subject_more},
               Criterion{metric_less, subject_less}, level.value());
  return Status::OK();
}

Result<CriterionWeights> UserContext::DeriveWeights() const {
  if (criteria_.empty()) {
    return Status::FailedPrecondition("user context has no criteria");
  }
  const size_t n = criteria_.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 1.0));
  for (const PairwiseStatement& s : statements_) {
    int i = -1;
    int j = -1;
    for (size_t k = 0; k < n; ++k) {
      if (criteria_[k] == s.more_important) i = static_cast<int>(k);
      if (criteria_[k] == s.less_important) j = static_cast<int>(k);
    }
    if (i < 0 || j < 0 || i == j) continue;
    double v = static_cast<double>(static_cast<int>(s.level));
    matrix[i][j] = v;
    matrix[j][i] = 1.0 / v;
  }
  Result<AhpResult> ahp = ComputeAhp(matrix);
  if (!ahp.ok()) return ahp.status();
  CriterionWeights out;
  out.consistency_ratio = ahp.value().consistency_ratio;
  for (size_t k = 0; k < n; ++k) {
    out.weight_of[criteria_[k].Id()] = ahp.value().weights[k];
  }
  return out;
}

Relation UserContext::ToRelation(const std::string& relation_name) const {
  Relation rel(Schema::Untyped(relation_name,
                               {"metric_more", "subject_more", "level",
                                "metric_less", "subject_less"}));
  auto add = [&rel](const Criterion& more, Importance level,
                    const Criterion& less) {
    rel.InsertUnchecked(Tuple({Value::String(more.metric),
                               Value::String(more.subject),
                               Value::Int(static_cast<int>(level)),
                               Value::String(less.metric),
                               Value::String(less.subject)}));
  };
  std::set<Criterion> named;
  for (const PairwiseStatement& s : statements_) {
    add(s.more_important, s.level, s.less_important);
    named.insert(s.more_important);
    named.insert(s.less_important);
  }
  // A criterion no statement names still takes part in the weights
  // (every unstated pair is "equally"), so it needs a row of its own.
  for (const Criterion& c : criteria_) {
    if (named.count(c) == 0) add(c, Importance::kEqual, c);
  }
  return rel;
}

Result<UserContext> UserContext::FromRelation(const Relation& relation) {
  if (relation.schema().arity() != 5) {
    return Status::InvalidArgument("relation " + relation.name() +
                                   " is not a user_context relation");
  }
  UserContext context;
  for (const Tuple& row : relation.rows()) {
    const Value& level = row.at(2);
    const bool known =
        level.type() == ValueType::kInt &&
        (level.int_value() == 1 || level.int_value() == 3 ||
         level.int_value() == 5 || level.int_value() == 7 ||
         level.int_value() == 9);
    if (!known) {
      return Status::InvalidArgument("unknown user_context level " +
                                     level.ToString());
    }
    const Importance importance =
        static_cast<Importance>(static_cast<int>(level.int_value()));
    Criterion more{row.at(0).ToString(), row.at(1).ToString()};
    Criterion less{row.at(3).ToString(), row.at(4).ToString()};
    if (more == less) {
      context.AddCriterion(more);
    } else {
      context.AddStatement(more, less, importance);
    }
  }
  return context;
}

}  // namespace vada
