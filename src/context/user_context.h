#ifndef VADA_CONTEXT_USER_CONTEXT_H_
#define VADA_CONTEXT_USER_CONTEXT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/relation.h"

namespace vada {

/// A quality criterion over the wrangling result: a metric applied to a
/// subject, e.g. completeness of "crimerank" or consistency of the whole
/// "property" table (subject = relation or relation.attribute, following
/// Figure 2(d) of the paper).
struct Criterion {
  std::string metric;   ///< "completeness" | "accuracy" | "consistency" | ...
  std::string subject;  ///< e.g. "crimerank", "property.bedrooms", "property"

  /// Canonical id "metric(subject)".
  std::string Id() const { return metric + "(" + subject + ")"; }

  friend bool operator==(const Criterion& a, const Criterion& b) {
    return a.metric == b.metric && a.subject == b.subject;
  }
  friend bool operator<(const Criterion& a, const Criterion& b) {
    if (a.metric != b.metric) return a.metric < b.metric;
    return a.subject < b.subject;
  }
};

/// Saaty intensity of a pairwise statement. Mirrors the paper's phrasing:
/// "moderately" (3), "strongly" (5), "very strongly" (7), "extremely" (9).
enum class Importance {
  kEqual = 1,
  kModerate = 3,
  kStrong = 5,
  kVeryStrong = 7,
  kExtreme = 9,
};

/// Parses "moderately" / "strongly" / "very strongly" / "extremely" /
/// "equally" (with or without a "more important than" suffix).
Result<Importance> ParseImportance(const std::string& phrase);

const char* ImportanceName(Importance level);

/// "X <level> more important than Y".
struct PairwiseStatement {
  Criterion more_important;
  Criterion less_important;
  Importance level = Importance::kEqual;
};

/// Derived criterion weights, normalised to sum 1.
struct CriterionWeights {
  std::map<std::string, double> weight_of;  ///< keyed by Criterion::Id()
  double consistency_ratio = 0.0;

  /// Weight for `criterion`, or `fallback` when the criterion was never
  /// mentioned in the user context.
  double Get(const Criterion& criterion, double fallback = 0.0) const;
};

/// The paper's user context (§2.2): the user's priorities among result
/// features, expressed as pairwise comparisons and converted to weights
/// via AHP for use in multi-criteria mapping/source selection.
class UserContext {
 public:
  UserContext() = default;

  /// Declares a criterion; implicit via AddStatement too. Order of first
  /// mention fixes matrix order (deterministic output).
  void AddCriterion(const Criterion& criterion);

  /// Adds "more <level> important than less". Registers both criteria.
  void AddStatement(const Criterion& more, const Criterion& less,
                    Importance level);

  /// Convenience for the paper's textual form, e.g.
  ///   AddStatement("completeness", "crimerank",
  ///                "very strongly", "accuracy", "property.type")
  Status AddStatement(const std::string& metric_more,
                      const std::string& subject_more,
                      const std::string& level_phrase,
                      const std::string& metric_less,
                      const std::string& subject_less);

  const std::vector<Criterion>& criteria() const { return criteria_; }
  const std::vector<PairwiseStatement>& statements() const {
    return statements_;
  }
  bool empty() const { return criteria_.empty(); }

  /// Builds the reciprocal comparison matrix (unstated pairs default to
  /// equal importance) and derives AHP weights.
  Result<CriterionWeights> DeriveWeights() const;

  /// Renders the user context as a KB relation
  /// user_context(metric_more, subject_more, level, metric_less,
  /// subject_less) so transducer dependencies can quantify over it: one
  /// row per statement, in order, then one row comparing a criterion with
  /// itself for each criterion no statement names.
  Relation ToRelation(const std::string& relation_name = "user_context") const;

  /// Decodes a relation ToRelation produced, keeping statement order;
  /// criteria are registered in order of first mention.
  static Result<UserContext> FromRelation(const Relation& relation);

 private:
  int IndexOf(const Criterion& criterion);  // registers if new

  std::vector<Criterion> criteria_;
  std::vector<PairwiseStatement> statements_;
};

}  // namespace vada

#endif  // VADA_CONTEXT_USER_CONTEXT_H_
