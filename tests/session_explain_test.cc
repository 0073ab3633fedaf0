#include <gtest/gtest.h>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/persistence.h"
#include "wrangler/session.h"

namespace vada {
namespace {

Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

class SessionExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyUniverseOptions uopts;
    uopts.num_properties = 80;
    uopts.num_postcodes = 12;
    uopts.seed = 31;
    truth_ = GeneratePropertyUniverse(uopts);
    ExtractionErrorOptions opts;
    opts.seed = 3;
    ASSERT_TRUE(session_.SetTargetSchema(TargetSchema()).ok());
    ASSERT_TRUE(session_.AddSource(ExtractRightmove(truth_, opts)).ok());
    ASSERT_TRUE(session_.AddSource(GenerateDeprivation(truth_)).ok());
    ASSERT_TRUE(session_.Run().ok());
  }

  GroundTruth truth_;
  WranglingSession session_;
};

TEST_F(SessionExplainTest, ExplainsRowViaMappingAndSourceTuples) {
  // Pick a result row with a crimerank: it must come from the join
  // mapping, whose premises are a rightmove and a deprivation tuple.
  const Relation* result = session_.result();
  ASSERT_NE(result, nullptr);
  size_t crime = *result->schema().AttributeIndex("crimerank");
  const Tuple* joined_row = nullptr;
  for (const Tuple& row : result->rows()) {
    if (!row.at(crime).is_null()) {
      joined_row = &row;
      break;
    }
  }
  ASSERT_NE(joined_row, nullptr);

  Result<std::string> explanation = session_.ExplainResultRow(*joined_row);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_NE(explanation.value().find("via mapping"), std::string::npos)
      << explanation.value();
  EXPECT_NE(explanation.value().find("rule:"), std::string::npos);
  EXPECT_NE(explanation.value().find("from rightmove("), std::string::npos)
      << explanation.value();
  EXPECT_NE(explanation.value().find("from deprivation("), std::string::npos)
      << explanation.value();
}

TEST_F(SessionExplainTest, UnknownRowReportsFusion) {
  Tuple bogus({Value::String("x"), Value::String("x"), Value::String("x"),
               Value::String("x"), Value::Int(1), Value::Int(1),
               Value::Int(1)});
  Result<std::string> explanation = session_.ExplainResultRow(bogus);
  ASSERT_TRUE(explanation.ok());
  EXPECT_NE(explanation.value().find("assembled by fusion"),
            std::string::npos);
}

TEST_F(SessionExplainTest, TraceMarkdownRendering) {
  std::string md = session_.trace().ToMarkdown();
  EXPECT_NE(md.find("| step | transducer |"), std::string::npos);
  EXPECT_NE(md.find("schema_matching"), std::string::npos);
  EXPECT_NE(md.find("| changed |"), std::string::npos);
}

TEST_F(SessionExplainTest, SessionKbSurvivesPersistenceRoundTrip) {
  // The whole wrangled knowledge base — sources, metadata, results —
  // saves and restores losslessly (audit/replay scenario).
  std::string dir = testing::TempDir() + "/vada_session_kb";
  ASSERT_TRUE(SaveKnowledgeBase(session_.kb(), dir).ok());
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().RelationNames(), session_.kb().RelationNames());
  for (const std::string& name : session_.kb().RelationNames()) {
    EXPECT_EQ(loaded.value().FindRelation(name)->SortedRows(),
              session_.kb().FindRelation(name)->SortedRows())
        << name;
    EXPECT_EQ(loaded.value().catalog().GetRole(name),
              session_.kb().catalog().GetRole(name))
        << name;
  }
}

/// Confluence: the final knowledge-base contents must not depend on the
/// scheduling policy — FIFO and the activity-priority network transducer
/// must reach the same fixpoint (the paper's declarative-orchestration
/// promise: policies affect the path, not the destination).
TEST(SessionConfluenceTest, PolicyIndependentFixpoint) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 10;
  uopts.seed = 99;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions opts;
  opts.seed = 8;
  Relation rightmove = ExtractRightmove(truth, opts);
  Relation deprivation = GenerateDeprivation(truth);
  Relation address = GenerateAddressReference(truth);

  auto run = [&](std::unique_ptr<SchedulingPolicy> policy) {
    KnowledgeBase kb;
    auto state = std::make_unique<WranglingState>();
    state->target_relation = "target";
    EXPECT_TRUE(kb.CreateRelation(TargetSchema()).ok());
    kb.catalog().SetRole("target", RelationRole::kTarget);
    EXPECT_TRUE(kb.InsertAll(rightmove).ok());
    kb.catalog().SetRole("rightmove", RelationRole::kSource);
    EXPECT_TRUE(kb.InsertAll(deprivation).ok());
    kb.catalog().SetRole("deprivation", RelationRole::kSource);
    DataContextBinding binding;
    binding.context_relation = "address";
    binding.kind = RelationRole::kReference;
    binding.correspondences = {{"street", "street"}, {"postcode", "postcode"}};
    DataContext context;
    EXPECT_TRUE(context.AddBinding(binding).ok());
    EXPECT_TRUE(kb.InsertAll(address).ok());
    kb.catalog().SetRole("address", RelationRole::kReference);
    EXPECT_TRUE(kb.ReplaceRelationIfChanged(context.ToRelation()).ok());

    TransducerRegistry registry;
    EXPECT_TRUE(RegisterStandardTransducers(&registry, state.get()).ok());
    OrchestratorOptions oopts;
    oopts.max_steps = 2000;
    NetworkTransducer orchestrator(&registry, std::move(policy), oopts);
    Status s = orchestrator.Run(&kb);
    EXPECT_TRUE(s.ok()) << s.ToString();

    // Snapshot: every relation's sorted rows.
    std::map<std::string, std::vector<Tuple>> snapshot;
    for (const std::string& name : kb.RelationNames()) {
      snapshot[name] = kb.FindRelation(name)->SortedRows();
    }
    return snapshot;
  };

  auto fifo = run(std::make_unique<FifoPolicy>());
  auto priority = run(std::make_unique<ActivityPriorityPolicy>(
      ActivityPriorityPolicy::DefaultActivityOrder()));
  ASSERT_EQ(fifo.size(), priority.size());
  for (const auto& [name, rows] : fifo) {
    ASSERT_TRUE(priority.count(name) > 0) << name;
    EXPECT_EQ(priority.at(name), rows) << "relation " << name
                                       << " differs between policies";
  }
}

}  // namespace
}  // namespace vada
