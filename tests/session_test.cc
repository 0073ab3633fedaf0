#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "obs/json.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"
#include "wrangler/standard_transducers.h"

namespace vada {
namespace {

/// The paper's target schema (Figure 2(b)).
Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

/// Fixture generating the Figure 2 demonstration scenario.
class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyUniverseOptions uopts;
    uopts.num_properties = 120;
    uopts.num_postcodes = 20;
    uopts.seed = 5;
    truth_ = GeneratePropertyUniverse(uopts);
    ExtractionErrorOptions rm;
    rm.seed = 101;
    rightmove_ = ExtractRightmove(truth_, rm);
    ExtractionErrorOptions otm;
    otm.seed = 202;
    otm.coverage = 0.6;
    onthemarket_ = ExtractOnthemarket(truth_, otm);
    deprivation_ = GenerateDeprivation(truth_);
    address_ = GenerateAddressReference(truth_);
  }

  /// Bootstrap inputs (paper step 1).
  Status Bootstrap(WranglingSession* session) {
    VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
    VADA_RETURN_IF_ERROR(session->AddSource(rightmove_));
    VADA_RETURN_IF_ERROR(session->AddSource(onthemarket_));
    VADA_RETURN_IF_ERROR(session->AddSource(deprivation_));
    return Status::OK();
  }

  Status AddAddressContext(WranglingSession* session) {
    return session->AddDataContext(
        address_, RelationRole::kReference,
        {{"street", "street"}, {"postcode", "postcode"}});
  }

  GroundTruth truth_;
  Relation rightmove_{Schema()};
  Relation onthemarket_{Schema()};
  Relation deprivation_{Schema()};
  Relation address_{Schema()};
};

TEST_F(SessionTest, RunWithoutTargetFails) {
  WranglingSession session;
  EXPECT_EQ(session.Run().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, BootstrapProducesResult) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  OrchestrationStats stats;
  Status s = session.Run(&stats);
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << session.trace().ToString();
  ASSERT_NE(session.result(), nullptr);
  EXPECT_GT(session.result()->size(), 0u);
  EXPECT_GT(stats.steps, 3u);
  // The result uses the target schema's attributes.
  EXPECT_EQ(session.result()->schema().AttributeNames(),
            TargetSchema().AttributeNames());
}

TEST_F(SessionTest, BootstrapGeneratesJoinMappings) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  bool has_join = false;
  for (const Mapping& m : session.mappings()) {
    if (m.source_relations.size() == 2) has_join = true;
  }
  EXPECT_TRUE(has_join) << "deprivation should join a property source";
}

TEST_F(SessionTest, RunIsIdempotentAtFixpoint) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  uint64_t version = session.kb().global_version();
  OrchestrationStats stats;
  ASSERT_TRUE(session.Run(&stats).ok());
  EXPECT_EQ(session.kb().global_version(), version);
  EXPECT_EQ(stats.effective_steps, 0u);
}

TEST_F(SessionTest, DataContextEnablesCfdLearningAndRepair) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.kb().FindRelation("cfd"), nullptr);

  ASSERT_TRUE(AddAddressContext(&session).ok());
  Status s = session.Run();
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << session.trace().ToString();
  const Relation* cfds = session.kb().FindRelation("cfd");
  ASSERT_NE(cfds, nullptr);
  EXPECT_GT(cfds->size(), 0u) << "street->postcode should be learnable";
}

TEST_F(SessionTest, AddDataContextTwiceExtendsOneBinding) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  Relation postcodes(Schema::Untyped("postcodes", {"postcode"}));
  ASSERT_TRUE(postcodes.Insert(Tuple({Value::String("M1 1AA")})).ok());
  ASSERT_TRUE(session
                  .AddDataContext(address_, RelationRole::kReference,
                                  {{"street", "street"}})
                  .ok());
  ASSERT_TRUE(session
                  .AddDataContext(postcodes, RelationRole::kMaster,
                                  {{"postcode", "postcode"}})
                  .ok());
  ASSERT_TRUE(session
                  .AddDataContext(address_, RelationRole::kReference,
                                  {{"postcode", "postcode"}})
                  .ok());

  Result<DataContext> context = ReadDataContext(session.kb());
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  ASSERT_EQ(context.value().bindings().size(), 2u);
  const DataContextBinding& address = context.value().bindings()[0];
  EXPECT_EQ(address.context_relation, address_.name());
  ASSERT_EQ(address.correspondences.size(), 2u);
  EXPECT_EQ(address.correspondences[0].target_attribute, "street");
  EXPECT_EQ(address.correspondences[1].target_attribute, "postcode");

  // One binding with both correspondences is enough to relate them.
  ASSERT_TRUE(session.Run().ok());
  const Relation* cfds = session.kb().FindRelation("cfd");
  ASSERT_NE(cfds, nullptr);
  EXPECT_GT(cfds->size(), 0u);
}

TEST_F(SessionTest, PayAsYouGoQualityImproves) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  ScenarioEvaluation step1 = EvaluateScenario(*session.result(), truth_);

  ASSERT_TRUE(AddAddressContext(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  ScenarioEvaluation step2 = EvaluateScenario(*session.result(), truth_);

  // Pay-as-you-go: more information must not materially worsen the
  // outcome, and must widen coverage. (Dimensions trade off: with
  // reference data the selector adds projection mappings, which raises
  // coverage while the newly covered rows lack crimerank values — the
  // equal-weight aggregate may dip within tolerance; step 4's user
  // context exists precisely to arbitrate this trade-off.)
  EXPECT_GE(step2.overall, step1.overall - 0.02);
  EXPECT_GT(step2.coverage, step1.coverage);
  EXPECT_GT(step2.rows, step1.rows);
}

TEST_F(SessionTest, FeedbackRevisesMatchScores) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());

  // Find a result row with implausible bedrooms and flag it.
  const Relation* result = session.result();
  ASSERT_NE(result, nullptr);
  std::optional<size_t> bed_idx = result->schema().AttributeIndex("bedrooms");
  ASSERT_TRUE(bed_idx.has_value());
  size_t flagged = 0;
  for (const Tuple& row : result->rows()) {
    std::optional<double> d = row.at(*bed_idx).AsDouble();
    if (d.has_value() && *d > 8.0) {
      ASSERT_TRUE(session
                      .AddFeedback(FeedbackItem{row, "bedrooms",
                                                FeedbackPolarity::kIncorrect})
                      .ok());
      if (++flagged >= 10) break;
    }
  }
  ASSERT_GT(flagged, 0u) << "expected some area-extraction errors";

  Status s = session.Run();
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Relation* penalties = session.kb().FindRelation("match_penalty");
  ASSERT_NE(penalties, nullptr);
  EXPECT_GT(penalties->size(), 0u);
}

/// match_penalty as (source_relation, source_attribute, target_attribute)
/// -> factor.
std::map<std::string, double> Penalties(const WranglingSession& session) {
  std::map<std::string, double> out;
  const Relation* rel = session.kb().FindRelation("match_penalty");
  if (rel == nullptr) return out;
  for (const Tuple& row : rel->rows()) {
    out[row.at(0).ToString() + "." + row.at(1).ToString() + "->" +
        row.at(2).ToString()] = *row.at(3).AsDouble();
  }
  return out;
}

TEST_F(SessionTest, DuplicateFeedbackIsAttributedOnItsOwnRun) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const Relation* result = session.result();
  ASSERT_NE(result, nullptr);
  size_t bed = *result->schema().AttributeIndex("bedrooms");
  std::vector<Tuple> rows = result->SortedRows();
  auto implausible = std::find_if(rows.begin(), rows.end(), [&](const Tuple& r) {
    std::optional<double> d = r.at(bed).AsDouble();
    return d.has_value() && *d > 8.0;
  });
  ASSERT_NE(implausible, rows.end()) << "expected an area-extraction error";
  const FeedbackItem item{*implausible, "bedrooms",
                          FeedbackPolarity::kIncorrect};

  ASSERT_TRUE(session.AddFeedback(item).ok());
  ASSERT_TRUE(session.Run().ok());
  const std::map<std::string, double> once = Penalties(session);
  ASSERT_FALSE(once.empty());

  // The same annotation again is new evidence: its own Run attributes it,
  // without waiting for some unrelated write to re-enable propagation.
  ASSERT_TRUE(session.AddFeedback(item).ok());
  OrchestrationStats stats;
  ASSERT_TRUE(session.Run(&stats).ok());
  EXPECT_GT(stats.effective_steps, 0u);
  EXPECT_EQ(session.state().attributed_feedback_items,
            (std::set<size_t>{0, 1}));
  const std::map<std::string, double> twice = Penalties(session);
  for (const auto& [match, factor] : once) {
    ASSERT_EQ(twice.count(match), 1u) << match;
    EXPECT_NEAR(twice.at(match), factor * factor, 1e-12) << match;
  }
}

TEST_F(SessionTest, UserContextChangesSelection) {
  auto run_with_context = [this](bool crime_first) {
    WranglingSession session;
    EXPECT_TRUE(Bootstrap(&session).ok());
    EXPECT_TRUE(AddAddressContext(&session).ok());
    UserContext uc;
    if (crime_first) {
      // Figure 2(d): completeness of crimerank dominates.
      EXPECT_TRUE(uc.AddStatement("completeness", "crimerank", "very strongly",
                                  "completeness", "bedrooms")
                      .ok());
    } else {
      EXPECT_TRUE(uc.AddStatement("completeness", "bedrooms", "very strongly",
                                  "completeness", "crimerank")
                      .ok());
    }
    EXPECT_TRUE(session.SetUserContext(uc).ok());
    EXPECT_TRUE(session.Run().ok());
    return session.selected_mappings();
  };

  std::vector<std::string> crime_selection = run_with_context(true);
  std::vector<std::string> bedrooms_selection = run_with_context(false);
  ASSERT_FALSE(crime_selection.empty());
  ASSERT_FALSE(bedrooms_selection.empty());
  // Crimerank-priority must keep a join mapping (the only crimerank
  // provider) at the top.
  EXPECT_NE(crime_selection.front().find("join"), std::string::npos)
      << "crimerank priority should prefer a deprivation join";
}

TEST_F(SessionTest, TraceRecordsOrchestration) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const ExecutionTrace& trace = session.trace();
  EXPECT_GT(trace.size(), 0u);
  std::map<std::string, size_t> counts = trace.ExecutionCounts();
  EXPECT_GT(counts["schema_matching"], 0u);
  EXPECT_GT(counts["mapping_generation"], 0u);
  EXPECT_GT(counts["mapping_execution"], 0u);
  EXPECT_GT(counts["fusion"], 0u);
  // Browsable rendering mentions the transducers.
  EXPECT_NE(trace.ToString().find("schema_matching"), std::string::npos);
}

TEST_F(SessionTest, CustomTransducerParticipates) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  // A Vadalog-implemented transducer: flags cheap properties once the
  // result relation is non-empty (extensibility route of §2.3).
  ASSERT_TRUE(
      session
          .AddTransducer(std::make_unique<VadalogTransducer>(
              "cheap_flagger", "quality",
              "ready() :- sys_relation_nonempty(\"wrangled_result\").",
              "cheap(S, P) :- wrangled_result(T, D, S, PC, B, P, C), "
              "P < 150000.",
              std::vector<std::string>{"cheap"}))
          .ok());
  ASSERT_TRUE(session.Run().ok());
  const Relation* cheap = session.kb().FindRelation("cheap");
  ASSERT_NE(cheap, nullptr);
  EXPECT_GT(cheap->size(), 0u);
}

TEST_F(SessionTest, DuplicateTargetSchemaRejected) {
  WranglingSession session;
  ASSERT_TRUE(session.SetTargetSchema(TargetSchema()).ok());
  EXPECT_FALSE(session.SetTargetSchema(TargetSchema()).ok());
}

TEST_F(SessionTest, ResultQualityEstimateAvailable) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(AddAddressContext(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  Result<RelationQuality> q = session.EstimateResultQuality();
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_GT(q.value().row_count, 0u);
  // With reference data, accuracy for street must be available.
  ASSERT_TRUE(q.value().attribute.count("street") > 0);
  EXPECT_TRUE(q.value().attribute.at("street").accuracy.has_value());
}

TEST_F(SessionTest, ResultQualityEstimateScoresRelevanceAgainstMaster) {
  // The session scores its result with the estimator quality_metrics
  // scores mappings with, so a master binding yields relevance in both.
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session
                  .AddDataContext(address_, RelationRole::kMaster,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}})
                  .ok());
  ASSERT_TRUE(session.Run().ok());
  const Relation* metrics = session.kb().FindRelation("quality_metric");
  ASSERT_NE(metrics, nullptr);
  size_t mapping_relevance = 0;
  for (const Tuple& row : metrics->rows()) {
    mapping_relevance += row.at(1) == Value::String("relevance");
  }
  EXPECT_EQ(mapping_relevance, session.mappings().size());

  Result<RelationQuality> q = session.EstimateResultQuality();
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q.value().relevance.has_value());
  QualityEstimator by_hand;
  by_hand.SetMaster(&address_, {{"street", "street"}, {"postcode", "postcode"}});
  EXPECT_EQ(q.value().relevance, by_hand.Estimate(*session.result()).relevance);
  EXPECT_GT(*q.value().relevance, 0.0);
}

TEST_F(SessionTest, QualityContextCompilesOncePerDataContextVersion) {
  WranglerConfig config;
  config.fault_tolerance.sleep_ms = [](double) {};
  WranglingSession session(config);
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(AddAddressContext(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.state().quality_context_compiles, 1u)
      << "cfd_learning, mapping_repair, quality_metrics and source_quality "
         "share one compilation";

  OrchestrationStats idle;
  ASSERT_TRUE(session.Run(&idle).ok());
  EXPECT_EQ(idle.steps, 0u);
  EXPECT_EQ(session.state().quality_context_compiles, 1u);

  ASSERT_TRUE(session
                  .AddDataContext(address_, RelationRole::kMaster,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}})
                  .ok());
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.state().quality_context_compiles, 2u);

  // A step that writes and then fails is rolled back. The rollback moves
  // the version epoch, which every read-set key names, so the quality
  // context is compiled once more when the bodies run again.
  ASSERT_TRUE(
      session.kb().CreateRelation(Schema::Untyped("side_effect", {"k"})).ok());
  bool failed_once = false;
  ASSERT_TRUE(session
                  .AddTransducer(std::make_unique<FunctionTransducer>(
                      "fails_once", "quality",
                      "ready() :- sys_relation_role(_S, \"source\").",
                      [&failed_once](KnowledgeBase* kb) {
                        if (failed_once) return Status::OK();
                        failed_once = true;
                        VADA_RETURN_IF_ERROR(
                            kb->Assert("side_effect", {Value::Int(1)}));
                        return Status::Internal("fails once");
                      }))
                  .ok());
  const uint64_t epoch = session.kb().version_epoch();
  OrchestrationStats stats;
  ASSERT_TRUE(session.Run(&stats).ok());
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_GT(session.kb().version_epoch(), epoch);
  EXPECT_EQ(session.state().quality_context_compiles, 3u);
  EXPECT_DOUBLE_EQ(session.MetricsReport().snapshot.Value(
                       "vada_quality_context_compiles"),
                   3.0);
}

TEST_F(SessionTest, MetricsReportExposesOrchestrationMetrics) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  OrchestrationStats stats;
  ASSERT_TRUE(session.Run(&stats).ok());

  SessionMetricsReport report = session.MetricsReport();
  ASSERT_FALSE(report.empty());
  EXPECT_GT(report.snapshot.Value("vada_datalog_rules_fired"), 0.0);
  EXPECT_GT(report.snapshot.Value("vada_datalog_join_probes"), 0.0);
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_orchestrator_steps"),
                   static_cast<double>(stats.steps));
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_orchestrator_dependency_checks"),
                   static_cast<double>(stats.dependency_checks));
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_session_runs"), 1.0);
  EXPECT_GT(report.snapshot.Value("vada_kb_relations"), 0.0);

  // Per-transducer execute-duration histograms, one observation per run.
  std::map<std::string, size_t> counts = session.trace().ExecutionCounts();
  for (const char* transducer :
       {"schema_matching", "mapping_generation", "mapping_execution",
        "fusion"}) {
    const obs::MetricSample* h = report.snapshot.Find(
        "vada_transducer_execute_seconds", {{"transducer", transducer}});
    ASSERT_NE(h, nullptr) << transducer;
    EXPECT_EQ(h->kind, obs::MetricKind::kHistogram);
    EXPECT_EQ(h->count, counts[transducer]) << transducer;
    EXPECT_GT(h->sum, 0.0) << transducer;
  }
}

// PublishKbGauges re-measures only relations whose version moved. After
// a seeded stream of writes, rolled-back steps, a drop and Runs, every
// per-relation gauge still equals a fresh computation, and a relation
// that left the KB reads 0.
TEST_F(SessionTest, KbRelationGaugesMatchAFreshComputation) {
  WranglerConfig config;
  config.fault_tolerance.sleep_ms = [](double) {};
  WranglingSession session(config);
  ASSERT_TRUE(Bootstrap(&session).ok());
  KnowledgeBase& kb = session.kb();
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("stream", {"k"})).ok());
  ASSERT_TRUE(kb.Assert("stream", {Value::Int(0)}).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("doomed", {"k"})).ok());
  ASSERT_TRUE(kb.Assert("doomed", {Value::Int(1)}).ok());
  // Fails its first attempt after each stream write, having made only a
  // no-op write: the step is rolled back, with no version moved.
  bool fail_next = false;
  ASSERT_TRUE(session
                  .AddTransducer(std::make_unique<FunctionTransducer>(
                      "flaky", "quality",
                      "ready() :- sys_relation_nonempty(\"stream\").",
                      [&fail_next](KnowledgeBase* kb) {
                        // Read, so that every stream write re-enables it.
                        (void)kb->FindRelation("stream");
                        if (!fail_next) return Status::OK();
                        fail_next = false;
                        VADA_RETURN_IF_ERROR(
                            kb->Assert("stream", {Value::Int(0)}));
                        return Status::Internal("flaky");
                      }))
                  .ok());

  auto expect_fresh = [&](const SessionMetricsReport& report) {
    std::set<std::string> published;
    for (const obs::MetricSample& sample : report.snapshot.samples) {
      if (sample.name != "vada_kb_relation_rows" &&
          sample.name != "vada_kb_relation_bytes") {
        continue;
      }
      const std::string& name = sample.labels.at("relation");
      published.insert(name);
      const Relation* rel = kb.FindRelation(name);
      const double fresh =
          rel == nullptr ? 0.0
          : sample.name == "vada_kb_relation_rows"
              ? static_cast<double>(rel->size())
              : static_cast<double>(rel->ApproxBytes());
      EXPECT_DOUBLE_EQ(sample.value, fresh) << sample.name << " " << name;
    }
    for (const std::string& name : kb.RelationNames()) {
      EXPECT_EQ(published.count(name), 1u) << name;
    }
  };

  std::mt19937 rng(42);
  size_t rollbacks = 0;
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(kb.Assert("stream", {Value::Int(100 + round)}).ok());
    for (int i = 0; i < 5; ++i) {
      const Value k = Value::Int(1 + static_cast<int64_t>(rng() % 40));
      if (rng() % 4 == 0) {
        ASSERT_TRUE(kb.Retract("stream", Tuple({k})).ok());
      } else {
        ASSERT_TRUE(kb.Assert("stream", {k}).ok());
      }
    }
    if (round == 6) {
      ASSERT_TRUE(kb.DropRelation("doomed").ok());
    }
    // Publish what the writes did, then let the rolled-back step run.
    expect_fresh(session.MetricsReport());
    fail_next = true;
    OrchestrationStats stats;
    ASSERT_TRUE(session.Run(&stats).ok());
    EXPECT_FALSE(fail_next);
    rollbacks += stats.rollbacks;
    expect_fresh(session.MetricsReport());
  }
  EXPECT_GE(rollbacks, 12u);
  const SessionMetricsReport report = session.MetricsReport();
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_kb_relation_rows",
                                         {{"relation", "doomed"}}),
                   0.0);
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_kb_relation_bytes",
                                         {{"relation", "doomed"}}),
                   0.0);
  ASSERT_NE(report.snapshot.Find("vada_kb_relation_rows",
                                 {{"relation", "doomed"}}),
            nullptr);
}

// Duplicate detection accounts for every candidate pair it examined
// (pruned by the score bound or fully scored), and the vada_dedup_*
// gauges publish the session's running totals.
TEST_F(SessionTest, DedupStatsAccountForEveryCandidatePair) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const DedupStats& st = session.state().dedup_stats;
  EXPECT_GT(st.pairs_considered, 0u);
  EXPECT_EQ(st.pairs_pruned + st.pairs_scored, st.pairs_considered);
  EXPECT_GT(st.pairs_matched, 0u);
  EXPECT_LE(st.pairs_matched, st.pairs_scored);
  EXPECT_EQ(st.blocks_truncated, 0u);
  const obs::MetricsSnapshot snapshot = session.MetricsReport().snapshot;
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_dedup_pairs_considered"),
                   static_cast<double>(st.pairs_considered));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_dedup_pairs_pruned"),
                   static_cast<double>(st.pairs_pruned));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_dedup_pairs_scored"),
                   static_cast<double>(st.pairs_scored));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_dedup_pairs_matched"),
                   static_cast<double>(st.pairs_matched));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_dedup_blocks_truncated"), 0.0);
}

// A block cut short by max_pairs_per_block is recorded, not silent.
TEST_F(SessionTest, DedupBlockCapIsRecorded) {
  WranglerConfig config;
  config.dedup.max_pairs_per_block = 1;
  WranglingSession session(config);
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const DedupStats& st = session.state().dedup_stats;
  EXPECT_GT(st.blocks_truncated, 0u);
  EXPECT_DOUBLE_EQ(
      session.MetricsReport().snapshot.Value("vada_dedup_blocks_truncated"),
      static_cast<double>(st.blocks_truncated));
}

// vada_index_bytes covers every persistent composite join index: the
// ones built on the session's snapshot cache, which mapping execution's
// source loads go through.
TEST_F(SessionTest, IndexBytesGaugeCountsMappingSourceIndexes) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const double gauge =
      session.MetricsReport().snapshot.Value("vada_index_bytes");
  EXPECT_GT(gauge, 0.0);
  EXPECT_DOUBLE_EQ(
      gauge, static_cast<double>(session.snapshot_cache().ApproxIndexBytes()));
}

// A session keeps one snapshot cache: on the default config, the
// orchestrator's dependency scans and mapping execution's source loads
// both land in it, and its hit/miss counters are always registered.
TEST_F(SessionTest, OneSnapshotCacheServesScansAndMappings) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  const datalog::SnapshotCache& cache = session.snapshot_cache();
  const std::vector<std::string> cached = cache.relations();
  auto has = [&](const std::string& name) {
    return std::binary_search(cached.begin(), cached.end(), name);
  };
  // Only dependency queries read the sys_* control relations ...
  EXPECT_TRUE(has("sys_relation_nonempty"));
  // ... and only mappings read the sources.
  EXPECT_TRUE(has(rightmove_.name()));
  EXPECT_TRUE(has(onthemarket_.name()));

  const obs::MetricsSnapshot snapshot = session.MetricsReport().snapshot;
  const datalog::SnapshotCache::Stats stats = cache.stats();
  EXPECT_GT(snapshot.Value("vada_snapshot_cache_hits_total"), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_snapshot_cache_hits_total"),
                   static_cast<double>(stats.hits));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_snapshot_cache_misses_total"),
                   static_cast<double>(stats.misses));
}

TEST_F(SessionTest, MetricsReportRendersBothExportFormats) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  SessionMetricsReport report = session.MetricsReport();

  // Prometheus text exposition: typed families, our metrics present.
  ASSERT_FALSE(report.prometheus.empty());
  EXPECT_NE(report.prometheus.find("# TYPE vada_orchestrator_steps counter"),
            std::string::npos);
  EXPECT_NE(report.prometheus.find(
                "# TYPE vada_transducer_execute_seconds histogram"),
            std::string::npos);
  EXPECT_NE(report.prometheus.find("vada_kb_relation_rows{relation="),
            std::string::npos);
  EXPECT_NE(report.prometheus.find("le=\"+Inf\""), std::string::npos);

  // Chrome trace: valid JSON with at least one event per orchestration
  // step (steps on tid 1, spans on tid 2).
  std::string error;
  ASSERT_TRUE(obs::JsonLint(report.chrome_trace, &error)) << error;
  size_t events = 0;
  for (size_t pos = report.chrome_trace.find("\"ph\":\"X\"");
       pos != std::string::npos;
       pos = report.chrome_trace.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_GE(events, session.trace().size());
  EXPECT_NE(report.chrome_trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(report.chrome_trace.find("schema_matching"), std::string::npos);
}

TEST_F(SessionTest, MetricsReportEmptyWhenObservabilityDisabled) {
  WranglerConfig config;
  config.obs.enabled = false;
  WranglingSession session(config);
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_NE(session.result(), nullptr);
  EXPECT_GT(session.result()->size(), 0u);

  SessionMetricsReport report = session.MetricsReport();
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(report.prometheus.empty());
  EXPECT_TRUE(report.chrome_trace.empty());
  EXPECT_EQ(session.obs().metrics(), nullptr);
  EXPECT_EQ(session.obs().spans(), nullptr);
}

TEST_F(SessionTest, MetricsAccumulateAcrossRuns) {
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  double steps_after_bootstrap =
      session.MetricsReport().snapshot.Value("vada_orchestrator_steps");
  ASSERT_TRUE(AddAddressContext(&session).ok());
  ASSERT_TRUE(session.Run().ok());
  SessionMetricsReport report = session.MetricsReport();
  EXPECT_GT(report.snapshot.Value("vada_orchestrator_steps"),
            steps_after_bootstrap);
  EXPECT_DOUBLE_EQ(report.snapshot.Value("vada_session_runs"), 2.0);
}

}  // namespace
}  // namespace vada
