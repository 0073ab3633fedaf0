#include <gtest/gtest.h>

#include "feedback/feedback.h"
#include "feedback/propagation.h"
#include "kb/knowledge_base.h"

namespace vada {
namespace {

TEST(FeedbackStoreTest, AddAndQuery) {
  FeedbackStore store;
  EXPECT_TRUE(store.empty());
  store.Add(FeedbackItem{Tuple({Value::Int(1)}), "bedrooms",
                         FeedbackPolarity::kIncorrect});
  store.Add(FeedbackItem{Tuple({Value::Int(2)}), "",
                         FeedbackPolarity::kCorrect});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.ItemsForAttribute("bedrooms").size(), 1u);
  EXPECT_EQ(store.ItemsForAttribute("price").size(), 0u);
  store.Clear();
  EXPECT_TRUE(store.empty());
}

TEST(FeedbackStoreTest, ToRowKeysRepeatsApart) {
  const FeedbackItem item{Tuple({Value::Int(1)}), "bedrooms",
                          FeedbackPolarity::kIncorrect};
  Relation rel(FeedbackStore::RelationSchema());
  ASSERT_TRUE(rel.Insert(FeedbackStore::ToRow(item, 0)).ok());
  ASSERT_TRUE(rel.Insert(FeedbackStore::ToRow(item, 1)).ok());
  ASSERT_EQ(rel.size(), 2u);  // a repeated annotation is a row of its own
  EXPECT_EQ(rel.rows()[0].at(1), Value::String("bedrooms"));
  EXPECT_EQ(rel.rows()[0].at(2), Value::String("incorrect"));
  EXPECT_EQ(rel.rows()[1].at(3), Value::Int(1));
}

TEST(FeedbackItemTest, ToStringMentionsPolarityAndAttribute) {
  FeedbackItem item{Tuple({Value::Int(1)}), "bedrooms",
                    FeedbackPolarity::kIncorrect};
  std::string s = item.ToString();
  EXPECT_NE(s.find("bedrooms"), std::string::npos);
  EXPECT_NE(s.find("incorrect"), std::string::npos);
}

using SourceList = std::vector<std::pair<std::string, std::string>>;

class PropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mapping_.id = "m0";
    mapping_.source_relations = {"rightmove"};
    mapping_.target_relation = "target";
    mapping_.covered_attributes = {"bedrooms", "price"};
    mapping_.result_predicate = "mapping_result_m0";

    Relation result(Schema::Untyped("mapping_result_m0",
                                    {"bedrooms", "price"}));
    tuple_ = Tuple({Value::Int(25), Value::Int(100000)});
    EXPECT_TRUE(result.InsertUnchecked(tuple_).ok());
    results_.emplace("m0", std::move(result));

    matches_ = {
        {"rightmove", "bedrooms", "target", "bedrooms", 0.9, "combined"},
        {"rightmove", "price", "target", "price", 0.9, "combined"},
        {"other", "bedrooms", "target", "bedrooms", 0.8, "combined"},
    };
  }

  /// What the feedback body probes: each mapping's raw and repaired
  /// results, where `kb` holds them.
  static MappingOutputs OutputsIn(const KnowledgeBase& kb,
                                  const std::vector<Mapping>& mappings) {
    MappingOutputs outputs;
    for (const Mapping& m : mappings) {
      for (const Relation* rel : {kb.FindRelation(m.result_predicate),
                                  kb.FindRelation("repaired_" + m.id)}) {
        if (rel != nullptr) outputs[m.id].push_back(rel);
      }
    }
    return outputs;
  }

  /// Creates `name` over the mapping's attributes in `kb`, holding `rows`.
  static void AddResult(KnowledgeBase* kb, const std::string& name,
                        const std::vector<Tuple>& rows) {
    ASSERT_TRUE(
        kb->CreateRelation(Schema::Untyped(name, {"bedrooms", "price"})).ok());
    for (const Tuple& row : rows) ASSERT_TRUE(kb->Insert(name, row).ok());
  }

  /// (source relation, source attribute) of each attribution.
  static SourceList Sources(const std::vector<MatchAttribution>& attributions) {
    SourceList out;
    for (const MatchAttribution& a : attributions) {
      out.emplace_back(a.source_relation, a.source_attribute);
    }
    return out;
  }

  Mapping mapping_;
  Tuple tuple_;
  std::map<std::string, Relation> results_;
  std::vector<MatchCandidate> matches_;
};

TEST_F(PropagationTest, AttributeItemFindsTupleOnlyInRepairedResult) {
  KnowledgeBase kb;
  // Repair rewrote the annotated row: the raw result no longer holds it.
  AddResult(&kb, "mapping_result_m0",
            {Tuple({Value::Int(2), Value::Int(100000)})});
  AddResult(&kb, "repaired_m0", {tuple_});
  const std::vector<FeedbackItem> items = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  FeedbackPropagator propagator;
  EXPECT_EQ(Sources(propagator.AttributeItem(
                items, 0, {mapping_}, OutputsIn(kb, {mapping_}), matches_)),
            (SourceList{{"rightmove", "bedrooms"}}));
}

TEST_F(PropagationTest, AttributeItemFindsTupleOnlyInRawResult) {
  KnowledgeBase kb;
  AddResult(&kb, "mapping_result_m0", {tuple_});
  AddResult(&kb, "repaired_m0", {Tuple({Value::Int(2), Value::Int(100000)})});
  const std::vector<FeedbackItem> items = {
      {tuple_, "", FeedbackPolarity::kIncorrect}};
  FeedbackPropagator propagator;
  // Tuple-level: every covered attribute's match, at the weaker strength.
  std::vector<MatchAttribution> got = propagator.AttributeItem(
      items, 0, {mapping_}, OutputsIn(kb, {mapping_}), matches_);
  EXPECT_EQ(Sources(got),
            (SourceList{{"rightmove", "bedrooms"}, {"rightmove", "price"}}));
  for (const MatchAttribution& a : got) {
    EXPECT_DOUBLE_EQ(a.strength, PropagatorOptions().tuple_level_factor);
  }
}

TEST_F(PropagationTest, AttributeItemRetriesUntilTupleAppears) {
  KnowledgeBase kb;
  AddResult(&kb, "mapping_result_m0",
            {Tuple({Value::Int(3), Value::Int(90000)})});
  AddResult(&kb, "repaired_m0", {Tuple({Value::Int(3), Value::Int(90000)})});
  const std::vector<FeedbackItem> items = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  FeedbackPropagator propagator;
  EXPECT_TRUE(propagator
                  .AttributeItem(items, 0, {mapping_},
                                 OutputsIn(kb, {mapping_}), matches_)
                  .empty());
  // A later run of the mapping produces the annotated tuple.
  ASSERT_TRUE(kb.Insert("repaired_m0", tuple_).ok());
  EXPECT_EQ(Sources(propagator.AttributeItem(
                items, 0, {mapping_}, OutputsIn(kb, {mapping_}), matches_)),
            (SourceList{{"rightmove", "bedrooms"}}));
}

TEST_F(PropagationTest, AttributeItemSkipsMappingWithNoResultInKb) {
  // m0 has neither a raw nor a repaired result in the KB; m1, over
  // another source, holds the annotated tuple.
  Mapping other = mapping_;
  other.id = "m1";
  other.source_relations = {"other"};
  other.result_predicate = "mapping_result_m1";
  KnowledgeBase kb;
  AddResult(&kb, "mapping_result_m1", {tuple_});
  const std::vector<FeedbackItem> items = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  FeedbackPropagator propagator;
  EXPECT_TRUE(propagator
                  .AttributeItem(items, 0, {mapping_},
                                 OutputsIn(kb, {mapping_}), matches_)
                  .empty());
  const std::vector<Mapping> both = {mapping_, other};
  EXPECT_EQ(Sources(propagator.AttributeItem(items, 0, both,
                                             OutputsIn(kb, both), matches_)),
            (SourceList{{"other", "bedrooms"}}));
}

TEST_F(PropagationTest, AttributeFeedbackPenalizesFeedingMatch) {
  FeedbackPropagator propagator;
  std::vector<FeedbackItem> items = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  Result<PropagationResult> out =
      propagator.Propagate(items, {mapping_}, results_, matches_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().matches_penalized, 1u);
  // rightmove.bedrooms penalized; price and the unrelated source intact.
  EXPECT_LT(out.value().revised_matches[0].score, 0.9);
  EXPECT_DOUBLE_EQ(out.value().revised_matches[1].score, 0.9);
  EXPECT_DOUBLE_EQ(out.value().revised_matches[2].score, 0.8);
}

TEST_F(PropagationTest, CorrectFeedbackReinforces) {
  FeedbackPropagator propagator;
  std::vector<FeedbackItem> items = {
      {tuple_, "bedrooms", FeedbackPolarity::kCorrect}};
  Result<PropagationResult> out =
      propagator.Propagate(items, {mapping_}, results_, matches_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().matches_reinforced, 1u);
  EXPECT_GT(out.value().revised_matches[0].score, 0.9);
  EXPECT_LE(out.value().revised_matches[0].score, 1.0);
}

TEST_F(PropagationTest, RepeatedIncorrectCompounds) {
  FeedbackPropagator propagator;
  std::vector<FeedbackItem> one = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  std::vector<FeedbackItem> three = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect},
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect},
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  double after_one = propagator.Propagate(one, {mapping_}, results_, matches_)
                         .value()
                         .revised_matches[0]
                         .score;
  double after_three =
      propagator.Propagate(three, {mapping_}, results_, matches_)
          .value()
          .revised_matches[0]
          .score;
  EXPECT_LT(after_three, after_one);
}

TEST_F(PropagationTest, TupleLevelFeedbackSpreadsWeaker) {
  FeedbackPropagator propagator;
  std::vector<FeedbackItem> attribute_level = {
      {tuple_, "bedrooms", FeedbackPolarity::kIncorrect}};
  std::vector<FeedbackItem> tuple_level = {
      {tuple_, "", FeedbackPolarity::kIncorrect}};
  double attr_score =
      propagator.Propagate(attribute_level, {mapping_}, results_, matches_)
          .value()
          .revised_matches[0]
          .score;
  Result<PropagationResult> tup =
      propagator.Propagate(tuple_level, {mapping_}, results_, matches_);
  ASSERT_TRUE(tup.ok());
  double tup_score = tup.value().revised_matches[0].score;
  EXPECT_LT(attr_score, tup_score);  // attribute feedback hits harder
  EXPECT_LT(tup_score, 0.9);         // but tuple feedback still counts
  // Tuple-level feedback also hits the price match (spread).
  EXPECT_LT(tup.value().revised_matches[1].score, 0.9);
  // Source correctness tracked from tuple-level items.
  ASSERT_EQ(tup.value().source_correctness.count("rightmove"), 1u);
  EXPECT_DOUBLE_EQ(tup.value().source_correctness.at("rightmove"), 0.0);
}

TEST_F(PropagationTest, FeedbackOnUnknownTupleIsNoop) {
  FeedbackPropagator propagator;
  std::vector<FeedbackItem> items = {
      {Tuple({Value::Int(999), Value::Int(1)}), "bedrooms",
       FeedbackPolarity::kIncorrect}};
  Result<PropagationResult> out =
      propagator.Propagate(items, {mapping_}, results_, matches_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().matches_penalized, 0u);
  EXPECT_DOUBLE_EQ(out.value().revised_matches[0].score, 0.9);
}

TEST_F(PropagationTest, NoFeedbackNoChange) {
  FeedbackPropagator propagator;
  Result<PropagationResult> out =
      propagator.Propagate({}, {mapping_}, results_, matches_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().matches_penalized, 0u);
  EXPECT_EQ(out.value().matches_reinforced, 0u);
}

}  // namespace
}  // namespace vada
