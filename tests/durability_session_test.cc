// End-to-end durability at the session layer: a wrangling session with
// `WranglerConfig::durability` enabled write-ahead-logs every KB commit;
// a new session on the same directory recovers the full knowledge base —
// sources, metadata, result — before any input is re-registered.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "feedback/feedback.h"
#include "kb/checkpoint.h"
#include "kb/fs_util.h"
#include "wrangler/session.h"
#include "kb_digest_test_util.h"

namespace vada {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/vada_dsess_" + name;
  EXPECT_TRUE(RemoveRecursively(dir).ok());
  return dir;  // DurabilityManager::Open creates it
}

Schema TargetSchema() {
  return Schema::Untyped("target",
                         {"type", "street", "postcode", "bedrooms", "price"});
}

WranglerConfig DurableConfig(const std::string& dir) {
  WranglerConfig config;
  config.durability.enabled = true;
  config.durability.directory = dir;
  config.durability.fsync = FsyncPolicy::kNone;  // tests: speed over safety
  return config;
}

class DurabilitySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyUniverseOptions uopts;
    uopts.num_properties = 40;
    uopts.num_postcodes = 8;
    uopts.seed = 11;
    truth_ = GeneratePropertyUniverse(uopts);
    ExtractionErrorOptions rm;
    rm.seed = 7;
    rightmove_ = ExtractRightmove(truth_, rm);
  }

  Status Bootstrap(WranglingSession* session) {
    VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
    return session->AddSource(rightmove_);
  }

  /// Bootstraps a durable session, adds `inputs` (nullptr: none), runs
  /// and closes it; then reopens the directory, re-declares only the
  /// bootstrap inputs and runs again. The recovered KB is at the
  /// orchestration fixpoint, so the second Run must change nothing.
  void ExpectRestartIsEffectFree(
      const std::string& name,
      const std::function<Status(WranglingSession*)>& inputs) {
    SCOPED_TRACE(name);
    std::string dir = TempDir(name);
    std::string digest;
    {
      WranglingSession session(DurableConfig(dir));
      ASSERT_TRUE(session.durability_open_status().ok())
          << session.durability_open_status().ToString();
      ASSERT_TRUE(Bootstrap(&session).ok());
      if (inputs != nullptr) {
        ASSERT_TRUE(inputs(&session).ok());
      }
      Status s = session.Run();
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_NE(session.result(), nullptr);
      EXPECT_GT(session.result()->size(), 0u);
      digest = KbDigest(session.kb());
    }
    WranglingSession session(DurableConfig(dir));
    ASSERT_NE(session.durability(), nullptr);
    EXPECT_TRUE(session.durability()->recovery().recovered);
    EXPECT_EQ(KbDigest(session.kb()), digest);
    ASSERT_TRUE(Bootstrap(&session).ok());
    OrchestrationStats stats;
    ASSERT_TRUE(session.Run(&stats).ok());
    EXPECT_EQ(stats.effective_steps, 0u) << session.trace().ToString();
    EXPECT_EQ(KbDigest(session.kb()), digest);
  }

  GroundTruth truth_;
  Relation rightmove_{Schema()};
};

TEST_F(DurabilitySessionTest, SessionStateSurvivesRestart) {
  // Target and source only; re-declared after reopen.
  ExpectRestartIsEffectFree("restart", nullptr);
  // A user context set before close and not set again after reopen.
  ExpectRestartIsEffectFree("restart_user_context",
                            [](WranglingSession* session) {
                              UserContext uc;
                              VADA_RETURN_IF_ERROR(uc.AddStatement(
                                  "completeness", "price", "extremely",
                                  "completeness", "bedrooms"));
                              return session->SetUserContext(uc);
                            });
  // A reference data context not declared again after reopen.
  ExpectRestartIsEffectFree(
      "restart_data_context", [this](WranglingSession* session) {
        return session->AddDataContext(
            GenerateAddressReference(truth_), RelationRole::kReference,
            {{"street", "street"}, {"postcode", "postcode"}});
      });
  // Feedback propagated before close. The reopened session starts with an
  // empty feedback store, which must leave the recovered penalties alone.
  ExpectRestartIsEffectFree("restart_feedback", [](WranglingSession* session) {
    VADA_RETURN_IF_ERROR(session->Run());
    const Relation* result = session->result();
    if (result == nullptr || result->empty()) {
      return Status::Internal("no result to annotate");
    }
    VADA_RETURN_IF_ERROR(session->AddFeedback(
        {result->rows().front(), "bedrooms", FeedbackPolarity::kIncorrect}));
    VADA_RETURN_IF_ERROR(session->Run());
    const Relation* penalties = session->kb().FindRelation("match_penalty");
    if (penalties == nullptr || penalties->empty()) {
      return Status::Internal("the feedback induced no match penalty");
    }
    return Status::OK();
  });
}

TEST_F(DurabilitySessionTest, FeedbackRelationWithoutSeqTakesNewFeedback) {
  // Directories written before feedback rows carried a `seq` column hold
  // feedback(tuple_key, attribute, polarity).
  std::string dir = TempDir("feedback_without_seq");
  {
    WranglingSession session(DurableConfig(dir));
    ASSERT_TRUE(session.durability_open_status().ok());
    ASSERT_TRUE(Bootstrap(&session).ok());
    ASSERT_TRUE(session.Run().ok());
    ASSERT_TRUE(session.kb()
                    .CreateRelation(Schema::Untyped(
                        "feedback", {"tuple_key", "attribute", "polarity"}))
                    .ok());
    for (const char* key : {"17", "5"}) {
      ASSERT_TRUE(session.kb()
                      .Insert("feedback", Tuple({Value::String(key),
                                                 Value::String("price"),
                                                 Value::String("incorrect")}))
                      .ok());
    }
  }
  WranglingSession session(DurableConfig(dir));
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_NE(session.result(), nullptr);
  ASSERT_FALSE(session.result()->empty());
  const FeedbackItem item{session.result()->rows().front(), "bedrooms",
                          FeedbackPolarity::kIncorrect};
  Status added = session.AddFeedback(item);
  ASSERT_TRUE(added.ok()) << added.ToString();

  const Relation* feedback = session.kb().FindRelation("feedback");
  ASSERT_NE(feedback, nullptr);
  EXPECT_EQ(feedback->schema(), FeedbackStore::RelationSchema());
  ASSERT_EQ(feedback->size(), 3u);
  for (size_t i = 0; i < feedback->size(); ++i) {
    EXPECT_EQ(feedback->rows()[i].at(3), Value::Int(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(feedback->rows()[0].at(0), Value::String("17"));
  EXPECT_EQ(feedback->rows()[2], FeedbackStore::ToRow(item, 2));
  ASSERT_TRUE(session.Run().ok());
  const Relation* penalties = session.kb().FindRelation("match_penalty");
  ASSERT_NE(penalties, nullptr);
  EXPECT_FALSE(penalties->empty());
}

TEST_F(DurabilitySessionTest, CheckpointApiAndRecoveryFromCheckpoint) {
  std::string dir = TempDir("checkpoint");
  std::string digest;
  {
    WranglingSession session(DurableConfig(dir));
    ASSERT_TRUE(Bootstrap(&session).ok());
    ASSERT_TRUE(session.Run().ok());
    Status ckpt = session.Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    EXPECT_FALSE(ListCheckpoints(dir).empty());
    digest = KbDigest(session.kb());
  }
  {
    WranglingSession session(DurableConfig(dir));
    ASSERT_NE(session.durability(), nullptr);
    EXPECT_GT(session.durability()->recovery().checkpoint_id, 0u);
    EXPECT_EQ(KbDigest(session.kb()), digest);
  }
}

TEST_F(DurabilitySessionTest, CheckpointRequiresDurability) {
  WranglingSession session;
  EXPECT_EQ(session.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilitySessionTest, OpenFailureSurfacesThroughRun) {
  // A durability directory that cannot be created: its parent is a file.
  std::string parent = testing::TempDir() + "/vada_dsess_not_a_dir";
  ASSERT_TRUE(RemoveRecursively(parent).ok());
  ASSERT_TRUE(WriteFileText(parent, "occupied").ok());
  WranglerConfig config = DurableConfig(parent + "/wal");
  WranglingSession session(config);
  EXPECT_FALSE(session.durability_open_status().ok());
  ASSERT_TRUE(session.SetTargetSchema(TargetSchema()).ok());
  EXPECT_FALSE(session.Run().ok());
  EXPECT_FALSE(session.Checkpoint().ok());
}

TEST_F(DurabilitySessionTest, MetricsExposeDurabilityFamilies) {
  std::string dir = TempDir("metrics");
  WranglingSession session(DurableConfig(dir));
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Checkpoint().ok());
  SessionMetricsReport report = session.MetricsReport();
  ASSERT_FALSE(report.empty());
  EXPECT_GT(report.snapshot.Value("vada_wal_records_total"), 0.0);
  EXPECT_GT(report.snapshot.Value("vada_wal_bytes_total"), 0.0);
  EXPECT_GT(report.snapshot.Value("vada_wal_live_bytes"), 0.0);
  EXPECT_GT(report.snapshot.Value("vada_checkpoint_bytes"), 0.0);
  const obs::MetricSample* ckpt =
      report.snapshot.Find("vada_checkpoint_seconds", {});
  ASSERT_NE(ckpt, nullptr);
  EXPECT_EQ(ckpt->count, 1u);
  const obs::MetricSample* rec =
      report.snapshot.Find("vada_recovery_seconds", {});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count, 1u);
}

}  // namespace
}  // namespace vada
