#include <gtest/gtest.h>

#include "context/ahp.h"
#include "context/data_context.h"
#include "context/user_context.h"

namespace vada {
namespace {

TEST(AhpTest, EmptyMatrixRejected) { EXPECT_FALSE(ComputeAhp({}).ok()); }

TEST(AhpTest, NonSquareRejected) {
  EXPECT_FALSE(ComputeAhp({{1.0, 2.0}}).ok());
}

TEST(AhpTest, NonPositiveRejected) {
  EXPECT_FALSE(ComputeAhp({{1.0, 0.0}, {2.0, 1.0}}).ok());
  EXPECT_FALSE(ComputeAhp({{1.0, -3.0}, {2.0, 1.0}}).ok());
}

TEST(AhpTest, SingleCriterion) {
  Result<AhpResult> r = ComputeAhp({{1.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().weights[0], 1.0);
  EXPECT_DOUBLE_EQ(r.value().consistency_ratio, 0.0);
}

TEST(AhpTest, UniformMatrixGivesEqualWeights) {
  Result<AhpResult> r =
      ComputeAhp({{1, 1, 1}, {1, 1, 1}, {1, 1, 1}});
  ASSERT_TRUE(r.ok());
  for (double w : r.value().weights) EXPECT_NEAR(w, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.value().lambda_max, 3.0, 1e-9);
  EXPECT_NEAR(r.value().consistency_ratio, 0.0, 1e-9);
}

TEST(AhpTest, ConsistentMatrixRecoversWeights) {
  // Weights 0.6 / 0.3 / 0.1 -> a_ij = w_i / w_j is perfectly consistent.
  std::vector<double> w = {0.6, 0.3, 0.1};
  std::vector<std::vector<double>> m(3, std::vector<double>(3));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) m[i][j] = w[i] / w[j];
  }
  Result<AhpResult> r = ComputeAhp(m);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(r.value().weights[i], w[i], 1e-6);
  EXPECT_NEAR(r.value().consistency_ratio, 0.0, 1e-6);
}

TEST(AhpTest, SaatyClassicExampleConsistencyRatio) {
  // A mildly inconsistent 3x3 matrix: CR must be positive but moderate.
  Result<AhpResult> r = ComputeAhp({{1, 2, 5}, {0.5, 1, 4}, {0.2, 0.25, 1}});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().lambda_max, 3.0);
  EXPECT_GT(r.value().consistency_ratio, 0.0);
  EXPECT_LT(r.value().consistency_ratio, 0.1);  // acceptable consistency
  // Weights ordered as expected and sum to 1.
  EXPECT_GT(r.value().weights[0], r.value().weights[1]);
  EXPECT_GT(r.value().weights[1], r.value().weights[2]);
  double sum = 0.0;
  for (double w : r.value().weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AhpTest, RandomIndexTable) {
  EXPECT_DOUBLE_EQ(SaatyRandomIndex(1), 0.0);
  EXPECT_DOUBLE_EQ(SaatyRandomIndex(2), 0.0);
  EXPECT_DOUBLE_EQ(SaatyRandomIndex(3), 0.58);
  EXPECT_DOUBLE_EQ(SaatyRandomIndex(9), 1.45);
  EXPECT_DOUBLE_EQ(SaatyRandomIndex(50), 1.49);
}

TEST(ImportanceTest, ParsePhrases) {
  EXPECT_EQ(ParseImportance("moderately").value(), Importance::kModerate);
  EXPECT_EQ(ParseImportance("strongly more important than").value(),
            Importance::kStrong);
  EXPECT_EQ(ParseImportance("Very Strongly").value(), Importance::kVeryStrong);
  EXPECT_EQ(ParseImportance("extremely").value(), Importance::kExtreme);
  EXPECT_EQ(ParseImportance("equally").value(), Importance::kEqual);
  EXPECT_FALSE(ParseImportance("kinda").ok());
}

TEST(UserContextTest, EmptyDerivesNothing) {
  UserContext uc;
  EXPECT_TRUE(uc.empty());
  EXPECT_FALSE(uc.DeriveWeights().ok());
}

TEST(UserContextTest, PaperFigure2dWeights) {
  // Figure 2(d): four statements over six criteria.
  UserContext uc;
  ASSERT_TRUE(uc.AddStatement("completeness", "crimerank", "very strongly",
                              "accuracy", "property.type")
                  .ok());
  ASSERT_TRUE(uc.AddStatement("consistency", "property", "strongly",
                              "completeness", "property.bedrooms")
                  .ok());
  ASSERT_TRUE(uc.AddStatement("completeness", "property.street", "moderately",
                              "completeness", "property.postcode")
                  .ok());
  Result<CriterionWeights> w = uc.DeriveWeights();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  double crime = w.value().Get(Criterion{"completeness", "crimerank"});
  double type_acc = w.value().Get(Criterion{"accuracy", "property.type"});
  double consistency = w.value().Get(Criterion{"consistency", "property"});
  double bedrooms = w.value().Get(Criterion{"completeness", "property.bedrooms"});
  double street = w.value().Get(Criterion{"completeness", "property.street"});
  double postcode =
      w.value().Get(Criterion{"completeness", "property.postcode"});
  EXPECT_GT(crime, type_acc);
  EXPECT_GT(consistency, bedrooms);
  EXPECT_GT(street, postcode);
  double total =
      crime + type_acc + consistency + bedrooms + street + postcode;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(UserContextTest, StrongerStatementStrongerWeightGap) {
  UserContext moderate;
  ASSERT_TRUE(
      moderate.AddStatement("completeness", "a", "moderately", "completeness",
                            "b")
          .ok());
  UserContext extreme;
  ASSERT_TRUE(extreme
                  .AddStatement("completeness", "a", "extremely",
                                "completeness", "b")
                  .ok());
  double gap_moderate =
      moderate.DeriveWeights().value().Get(Criterion{"completeness", "a"}) -
      moderate.DeriveWeights().value().Get(Criterion{"completeness", "b"});
  double gap_extreme =
      extreme.DeriveWeights().value().Get(Criterion{"completeness", "a"}) -
      extreme.DeriveWeights().value().Get(Criterion{"completeness", "b"});
  EXPECT_GT(gap_extreme, gap_moderate);
}

TEST(UserContextTest, GetFallback) {
  CriterionWeights w;
  EXPECT_DOUBLE_EQ(w.Get(Criterion{"completeness", "x"}, 0.5), 0.5);
}

TEST(UserContextTest, ToRelationRows) {
  UserContext uc;
  ASSERT_TRUE(
      uc.AddStatement("completeness", "a", "strongly", "accuracy", "b").ok());
  Relation rel = uc.ToRelation();
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.rows()[0].at(0), Value::String("completeness"));
  EXPECT_EQ(rel.rows()[0].at(2), Value::Int(5));
}

TEST(UserContextTest, FromRelationRoundTripsStatementsAndCriteria) {
  UserContext uc;
  ASSERT_TRUE(uc.AddStatement("completeness", "crimerank", "very strongly",
                              "completeness", "bedrooms")
                  .ok());
  ASSERT_TRUE(
      uc.AddStatement("accuracy", "price", "moderately", "completeness",
                      "crimerank")
          .ok());
  // A criterion no statement names still shifts every weight.
  uc.AddCriterion(Criterion{"consistency", "target"});

  Result<UserContext> back = UserContext::FromRelation(uc.ToRelation());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().criteria(), uc.criteria());
  ASSERT_EQ(back.value().statements().size(), uc.statements().size());
  for (size_t i = 0; i < uc.statements().size(); ++i) {
    EXPECT_EQ(back.value().statements()[i].more_important,
              uc.statements()[i].more_important);
    EXPECT_EQ(back.value().statements()[i].less_important,
              uc.statements()[i].less_important);
    EXPECT_EQ(back.value().statements()[i].level, uc.statements()[i].level);
  }
  Result<CriterionWeights> expected = uc.DeriveWeights();
  Result<CriterionWeights> decoded = back.value().DeriveWeights();
  ASSERT_TRUE(expected.ok() && decoded.ok());
  EXPECT_EQ(decoded.value().weight_of, expected.value().weight_of);
  // Encoding the decoded context reproduces the relation row for row.
  EXPECT_EQ(back.value().ToRelation().rows(), uc.ToRelation().rows());

  EXPECT_TRUE(UserContext::FromRelation(UserContext().ToRelation())
                  .value()
                  .empty());
  Relation bad = uc.ToRelation();
  ASSERT_TRUE(bad.Insert(Tuple({Value::String("a"), Value::String("b"),
                                Value::Int(4), Value::String("c"),
                                Value::String("d")}))
                  .ok());
  EXPECT_FALSE(UserContext::FromRelation(bad).ok());  // 4 is no level
}

TEST(UserContextTest, UnknownPhraseRejected) {
  UserContext uc;
  EXPECT_FALSE(
      uc.AddStatement("completeness", "a", "sort of", "accuracy", "b").ok());
}

TEST(DataContextTest, AddBindingValidation) {
  DataContext dc;
  DataContextBinding b;
  b.context_relation = "address";
  b.kind = RelationRole::kSource;  // not a data-context kind
  b.correspondences = {{"street", "street"}};
  EXPECT_FALSE(dc.AddBinding(b).ok());
  b.kind = RelationRole::kReference;
  b.correspondences.clear();
  EXPECT_FALSE(dc.AddBinding(b).ok());
  b.correspondences = {{"street", "street"}};
  EXPECT_TRUE(dc.AddBinding(b).ok());
  EXPECT_FALSE(dc.empty());
}

TEST(DataContextTest, Lookups) {
  DataContext dc;
  DataContextBinding b;
  b.context_relation = "address";
  b.kind = RelationRole::kReference;
  b.correspondences = {{"street", "str"}, {"postcode", "pc"}};
  ASSERT_TRUE(dc.AddBinding(b).ok());

  EXPECT_EQ(dc.ContextAttributeFor("address", "street").value(), "str");
  EXPECT_FALSE(dc.ContextAttributeFor("address", "city").has_value());
  EXPECT_FALSE(dc.ContextAttributeFor("other", "street").has_value());
  EXPECT_EQ(dc.BindingsOfKind(RelationRole::kReference).size(), 1u);
  EXPECT_TRUE(dc.BindingsOfKind(RelationRole::kMaster).empty());
  EXPECT_EQ(dc.BindingsCovering("postcode").size(), 1u);
  EXPECT_TRUE(dc.BindingsCovering("crimerank").empty());
}

TEST(DataContextTest, ToRelationOneRowPerCorrespondence) {
  DataContext dc;
  DataContextBinding b;
  b.context_relation = "address";
  b.kind = RelationRole::kExample;
  b.correspondences = {{"street", "str"}, {"postcode", "pc"}};
  ASSERT_TRUE(dc.AddBinding(b).ok());
  Relation rel = dc.ToRelation();
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.rows()[0].at(1), Value::String("example"));
}

TEST(DataContextTest, AddBindingMergesPerRelationAndKind) {
  DataContext dc;
  ASSERT_TRUE(dc.AddBinding({"address", RelationRole::kReference,
                             {{"street", "str"}}})
                  .ok());
  ASSERT_TRUE(
      dc.AddBinding({"agents", RelationRole::kMaster, {{"agent", "name"}}})
          .ok());
  // Same relation and kind, not adjacent: extends the first binding and
  // skips the correspondence it already has.
  ASSERT_TRUE(dc.AddBinding({"address", RelationRole::kReference,
                             {{"postcode", "pc"}, {"street", "str"}}})
                  .ok());
  // Same relation, another kind: a binding of its own.
  ASSERT_TRUE(dc.AddBinding({"address", RelationRole::kExample,
                             {{"postcode", "pc"}}})
                  .ok());

  ASSERT_EQ(dc.bindings().size(), 3u);
  const DataContextBinding& address = dc.bindings()[0];
  EXPECT_EQ(address.kind, RelationRole::kReference);
  ASSERT_EQ(address.correspondences.size(), 2u);
  EXPECT_EQ(address.correspondences[0].target_attribute, "street");
  EXPECT_EQ(address.correspondences[1].target_attribute, "postcode");
  EXPECT_EQ(dc.bindings()[1].context_relation, "agents");
  EXPECT_EQ(dc.bindings()[2].kind, RelationRole::kExample);

  Result<DataContext> back = DataContext::FromRelation(dc.ToRelation());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().bindings().size(), 3u);
  EXPECT_EQ(back.value().bindings()[0].correspondences.size(), 2u);
  EXPECT_EQ(back.value().ToRelation().rows(), dc.ToRelation().rows());
}

TEST(DataContextTest, FromRelationKeepsBindingOrder) {
  DataContext dc;
  DataContextBinding address;
  address.context_relation = "address";
  address.kind = RelationRole::kReference;
  address.correspondences = {{"street", "str"}, {"postcode", "pc"}};
  DataContextBinding agents;
  agents.context_relation = "agents";
  agents.kind = RelationRole::kMaster;
  agents.correspondences = {{"agent", "name"}};
  DataContextBinding sample;
  sample.context_relation = "address";
  sample.kind = RelationRole::kExample;
  sample.correspondences = {{"postcode", "pc"}};
  ASSERT_TRUE(dc.AddBinding(address).ok());
  ASSERT_TRUE(dc.AddBinding(agents).ok());
  ASSERT_TRUE(dc.AddBinding(sample).ok());

  Result<DataContext> back = DataContext::FromRelation(dc.ToRelation());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().bindings().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const DataContextBinding& want = dc.bindings()[i];
    const DataContextBinding& got = back.value().bindings()[i];
    EXPECT_EQ(got.context_relation, want.context_relation);
    EXPECT_EQ(got.kind, want.kind);
    ASSERT_EQ(got.correspondences.size(), want.correspondences.size());
    for (size_t j = 0; j < want.correspondences.size(); ++j) {
      EXPECT_EQ(got.correspondences[j].target_attribute,
                want.correspondences[j].target_attribute);
      EXPECT_EQ(got.correspondences[j].context_attribute,
                want.correspondences[j].context_attribute);
    }
  }
  EXPECT_EQ(back.value().ToRelation().rows(), dc.ToRelation().rows());

  EXPECT_TRUE(DataContext::FromRelation(DataContext().ToRelation())
                  .value()
                  .empty());
  Relation bad = dc.ToRelation();
  ASSERT_TRUE(bad.Insert(Tuple({Value::String("x"), Value::String("source"),
                                Value::String("a"), Value::String("b")}))
                  .ok());
  EXPECT_FALSE(DataContext::FromRelation(bad).ok());  // not a context kind
}

}  // namespace
}  // namespace vada
