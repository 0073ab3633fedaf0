#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "quality/metrics.h"

namespace vada {
namespace {

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs,
                      const std::vector<std::vector<Value>>& rows) {
  Relation rel(Schema::Untyped(name, attrs));
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(rel.InsertUnchecked(Tuple(row)).ok());
  }
  return rel;
}

TEST(QualityEstimatorTest, CompletenessOnly) {
  Relation data = MakeRelation("r", {"a", "b"},
                               {{Value::Int(1), Value::Null()},
                                {Value::Int(2), Value::Int(3)}});
  QualityEstimator estimator;
  RelationQuality q = estimator.Estimate(data);
  EXPECT_EQ(q.row_count, 2u);
  EXPECT_DOUBLE_EQ(q.attribute.at("a").completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.attribute.at("b").completeness, 0.5);
  EXPECT_FALSE(q.attribute.at("a").accuracy.has_value());
  EXPECT_FALSE(q.consistency.has_value());
}

TEST(QualityEstimatorTest, AccuracyAgainstReference) {
  Relation data = MakeRelation(
      "r", {"postcode"},
      {{Value::String("LS1")}, {Value::String("BAD")}, {Value::Null()}});
  Relation reference = MakeRelation(
      "address", {"pc"}, {{Value::String("LS1")}, {Value::String("LS2")}});
  QualityEstimator estimator;
  estimator.SetReference(&reference, {{"postcode", "pc"}});
  RelationQuality q = estimator.Estimate(data);
  ASSERT_TRUE(q.attribute.at("postcode").accuracy.has_value());
  // 1 of 2 non-null postcodes confirmed.
  EXPECT_DOUBLE_EQ(*q.attribute.at("postcode").accuracy, 0.5);
}

TEST(QualityEstimatorTest, AccuracyVacuouslyPerfectOnAllNull) {
  Relation data = MakeRelation("r", {"postcode"}, {{Value::Null()}});
  Relation reference = MakeRelation("address", {"pc"}, {{Value::String("X")}});
  QualityEstimator estimator;
  estimator.SetReference(&reference, {{"postcode", "pc"}});
  RelationQuality q = estimator.Estimate(data);
  EXPECT_DOUBLE_EQ(*q.attribute.at("postcode").accuracy, 1.0);
}

TEST(QualityEstimatorTest, ConsistencyViaCfds) {
  Relation evidence = MakeRelation(
      "address", {"street", "postcode"},
      {{Value::String("High St"), Value::String("LS1")},
       {Value::String("High St"), Value::String("LS1")},
       {Value::String("Park Rd"), Value::String("LS2")},
       {Value::String("Park Rd"), Value::String("LS2")}});
  CfdLearnerOptions opts;
  opts.min_support_count = 2;
  opts.try_pairs = false;
  std::vector<Cfd> cfds = CfdLearner(opts).Learn(evidence);
  ASSERT_FALSE(cfds.empty());

  Relation data = MakeRelation(
      "r", {"street", "postcode"},
      {{Value::String("High St"), Value::String("LS1")},
       {Value::String("Park Rd"), Value::String("WRONG")}});
  QualityEstimator estimator;
  estimator.SetCfds(cfds, &evidence);
  RelationQuality q = estimator.Estimate(data);
  ASSERT_TRUE(q.consistency.has_value());
  EXPECT_DOUBLE_EQ(*q.consistency, 0.5);
}

TEST(QualityEstimatorTest, FactsFlattenReport) {
  Relation data = MakeRelation("r", {"a"}, {{Value::Int(1)}});
  QualityEstimator estimator;
  std::vector<QualityMetricFact> facts = estimator.EstimateFacts(data, "m0");
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].entity, "m0");
  EXPECT_EQ(facts[0].metric, "completeness");
  EXPECT_EQ(facts[0].subject, "a");
  EXPECT_DOUBLE_EQ(facts[0].value, 1.0);
}

TEST(QualityMetricsRelationTest, RoundTrip) {
  std::vector<QualityMetricFact> facts = {
      {"m0", "completeness", "price", 0.9},
      {"m0", "consistency", "", 0.8},
  };
  Relation rel = QualityMetricsToRelation(facts);
  Result<std::vector<QualityMetricFact>> back =
      QualityMetricsFromRelation(rel);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
}

TEST(QualityMetricsRelationTest, WrongArityRejected) {
  Relation rel(Schema::Untyped("quality_metric", {"a"}));
  EXPECT_FALSE(QualityMetricsFromRelation(rel).ok());
}

TEST(RelationQualityTest, ToStringMentionsAttributes) {
  Relation data = MakeRelation("r", {"alpha"}, {{Value::Int(1)}});
  QualityEstimator estimator;
  std::string s = estimator.Estimate(data).ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
}

TEST(QualityEstimatorTest, AccuracyComparesDisplayForms) {
  // A value is confirmed when its display form is a reference value, so
  // numbers match the text of a reference column.
  Relation data = MakeRelation(
      "r", {"n"}, {{Value::Int(3)}, {Value::Double(0.5)}, {Value::Int(4)}});
  Relation reference = MakeRelation(
      "ref", {"n"}, {{Value::String("3")}, {Value::String("0.5")}});
  QualityEstimator estimator;
  estimator.SetReference(&reference, {{"n", "n"}});
  RelationQuality q = estimator.Estimate(data);
  EXPECT_EQ(q.attribute.at("n").accuracy, std::optional<double>(2.0 / 3.0));
}

// ---------------------------------------------------------------------------
// The compiled estimator against a reference kept here: the estimator as it
// was before it compiled, which rebuilt the reference sets and the master
// keys on every Estimate call.
// ---------------------------------------------------------------------------

namespace reference {

RelationQuality Estimate(
    const Relation* reference_data,
    const std::vector<ContextCorrespondence>& reference_correspondences,
    const CfdChecker* checker, const Relation* master_data,
    const std::vector<ContextCorrespondence>& master_correspondences,
    const Relation& data) {
  RelationQuality out;
  out.row_count = data.size();
  for (const Attribute& attr : data.schema().attributes()) {
    AttributeQuality q;
    Result<double> comp = data.NonNullFraction(attr.name);
    q.completeness = comp.ok() ? comp.value() : 0.0;
    if (reference_data != nullptr) {
      for (const ContextCorrespondence& c : reference_correspondences) {
        if (c.target_attribute != attr.name) continue;
        std::optional<size_t> ref_idx =
            reference_data->schema().AttributeIndex(c.context_attribute);
        std::optional<size_t> data_idx = data.schema().AttributeIndex(attr.name);
        if (!ref_idx.has_value() || !data_idx.has_value()) continue;
        std::set<std::string> reference_values;
        for (const Tuple& row : reference_data->rows()) {
          const Value& v = row.at(*ref_idx);
          if (!v.is_null()) reference_values.insert(v.ToString());
        }
        size_t non_null = 0;
        size_t confirmed = 0;
        for (const Tuple& row : data.rows()) {
          const Value& v = row.at(*data_idx);
          if (v.is_null()) continue;
          ++non_null;
          if (reference_values.count(v.ToString()) > 0) ++confirmed;
        }
        q.accuracy = (non_null == 0) ? 1.0
                                     : static_cast<double>(confirmed) /
                                           static_cast<double>(non_null);
        break;
      }
    }
    out.attribute[attr.name] = q;
  }
  if (checker != nullptr) out.consistency = checker->ConsistencyScore(data);
  if (master_data != nullptr && !master_correspondences.empty() &&
      !data.empty()) {
    std::vector<size_t> data_idx;
    std::vector<size_t> master_idx;
    bool usable = true;
    for (const ContextCorrespondence& c : master_correspondences) {
      std::optional<size_t> di = data.schema().AttributeIndex(c.target_attribute);
      std::optional<size_t> mi =
          master_data->schema().AttributeIndex(c.context_attribute);
      if (!di.has_value() || !mi.has_value()) {
        usable = false;
        break;
      }
      data_idx.push_back(*di);
      master_idx.push_back(*mi);
    }
    if (usable) {
      std::set<Tuple> master_keys;
      for (const Tuple& row : master_data->rows()) {
        master_keys.insert(row.Project(master_idx));
      }
      size_t relevant = 0;
      for (const Tuple& row : data.rows()) {
        std::vector<Value> key;
        bool has_null = false;
        for (size_t i : data_idx) {
          has_null = has_null || row.at(i).is_null();
          key.push_back(row.at(i));
        }
        if (!has_null && master_keys.count(Tuple(std::move(key))) > 0) {
          ++relevant;
        }
      }
      out.relevance =
          static_cast<double>(relevant) / static_cast<double>(data.size());
    }
  }
  return out;
}

}  // namespace reference

void ExpectSameQuality(const RelationQuality& got, const RelationQuality& want,
                       const std::string& where) {
  EXPECT_EQ(got.row_count, want.row_count) << where;
  ASSERT_EQ(got.attribute.size(), want.attribute.size()) << where;
  for (const auto& [name, q] : want.attribute) {
    auto it = got.attribute.find(name);
    ASSERT_NE(it, got.attribute.end()) << where << " " << name;
    // Bit-equal doubles: the same arithmetic on the same counts.
    EXPECT_EQ(it->second.completeness, q.completeness) << where << " " << name;
    EXPECT_EQ(it->second.accuracy, q.accuracy) << where << " " << name;
  }
  EXPECT_EQ(got.consistency, want.consistency) << where;
  EXPECT_EQ(got.relevance, want.relevance) << where;
}

/// A small-domain cell: null, an int, its string twin ("1" beside 1), a
/// double or a letter.
Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return Value::Null();
    case 1:
    case 2:
      return Value::Int(rng->UniformInt(0, 3));
    case 3:
      return Value::String(std::to_string(rng->UniformInt(0, 3)));
    case 4:
      return Value::Double(0.5 * static_cast<double>(rng->UniformInt(0, 3)));
    default:
      return Value::String(rng->Bernoulli(0.5) ? "x" : "y");
  }
}

/// A relation over a shuffled non-empty subset of `attributes`, with up to
/// `max_rows` rows.
Relation RandomRelation(Rng* rng, const std::string& name,
                        std::vector<std::string> attributes, size_t max_rows) {
  rng->Shuffle(&attributes);
  attributes.resize(1 + rng->Index(attributes.size()));
  Relation rel(Schema::Untyped(name, attributes));
  const size_t rows = rng->Index(max_rows + 1);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t a = 0; a < attributes.size(); ++a) {
      row.push_back(RandomValue(rng));
    }
    EXPECT_TRUE(rel.InsertUnchecked(Tuple(std::move(row))).ok());
  }
  return rel;
}

/// Up to `max` correspondences from target attributes (one absent from
/// every data relation) to context attributes (one absent from the context
/// relation).
std::vector<ContextCorrespondence> RandomCorrespondences(
    Rng* rng, const std::vector<std::string>& context_attributes, size_t max) {
  const std::vector<std::string> targets = {"a", "b", "c", "z"};
  std::vector<std::string> contexts = context_attributes;
  contexts.push_back("missing");
  std::vector<ContextCorrespondence> out;
  for (size_t n = rng->Index(max + 1); n > 0; --n) {
    out.push_back({rng->Choice(targets), rng->Choice(contexts)});
  }
  return out;
}

TEST(QualityEstimatorDifferentialTest, CompiledEstimatorMatchesPerCallReference) {
  const std::vector<std::string> target = {"a", "b", "c"};
  size_t accuracies = 0;
  size_t inconsistent = 0;
  size_t relevances = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(9000 + seed);
    std::optional<Relation> reference_data;
    if (rng.Bernoulli(0.8)) {
      reference_data = RandomRelation(&rng, "ref", {"r1", "r2"}, 20);
    }
    std::vector<ContextCorrespondence> reference_corr =
        RandomCorrespondences(&rng, {"r1", "r2"}, 3);
    std::optional<Relation> master_data;
    if (rng.Bernoulli(0.8)) {
      master_data = RandomRelation(&rng, "master", {"m1", "m2"}, 20);
    }
    std::vector<ContextCorrespondence> master_corr =
        RandomCorrespondences(&rng, {"m1", "m2"}, 2);
    Relation evidence = RandomRelation(&rng, "evidence", target, 20);
    std::vector<Cfd> cfds = CfdLearner(CfdLearnerOptions{
                                           .try_pairs = true,
                                           .min_support_count = 2,
                                           .min_confidence = 0.6,
                                           .constant_min_group = 2})
                                .Learn(evidence);
    CfdChecker checker(cfds, &evidence);
    const bool with_cfds = rng.Bernoulli(0.7);

    // The estimator must not read its inputs after the Set* calls: give
    // it copies that die first, and keep the originals for the reference.
    auto build = [&](QualityEstimator* estimator) {
      std::optional<Relation> ref_copy = reference_data;
      std::optional<Relation> master_copy = master_data;
      estimator->SetReference(ref_copy.has_value() ? &*ref_copy : nullptr,
                              reference_corr);
      estimator->SetMaster(master_copy.has_value() ? &*master_copy : nullptr,
                           master_corr);
      if (with_cfds && rng.Bernoulli(0.5)) {
        estimator->SetChecker(&checker);
      } else if (with_cfds) {
        estimator->SetCfds(cfds, &evidence);
      }
    };
    QualityEstimator reused;
    build(&reused);

    // One estimator serves several relations.
    for (int d = 0; d < 4; ++d) {
      Relation data = RandomRelation(&rng, "data", target, 25);
      const std::string where =
          "seed " + std::to_string(seed) + " relation " + std::to_string(d);
      RelationQuality want = reference::Estimate(
          reference_data.has_value() ? &*reference_data : nullptr,
          reference_corr, with_cfds ? &checker : nullptr,
          master_data.has_value() ? &*master_data : nullptr, master_corr,
          data);
      ExpectSameQuality(reused.Estimate(data), want, where + " reused");
      QualityEstimator fresh;
      build(&fresh);
      ExpectSameQuality(fresh.Estimate(data), want, where + " fresh");
      for (const auto& [name, q] : want.attribute) {
        accuracies += q.accuracy.has_value() && *q.accuracy > 0.0 &&
                      *q.accuracy < 1.0;
      }
      inconsistent += want.consistency.has_value() && *want.consistency < 1.0;
      relevances += want.relevance.has_value() && *want.relevance > 0.0;
    }
  }
  // The cases were not vacuous.
  EXPECT_GT(accuracies, 50u);
  EXPECT_GT(inconsistent, 50u);
  EXPECT_GT(relevances, 30u);
}

}  // namespace
}  // namespace vada
