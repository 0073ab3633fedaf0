// Pay-as-you-go soak for the pooled session: a session whose bodies fan
// out over a three-thread pool replays a seeded stream of interleaved
// feedback, data-context, user-context and source events; an inline
// twin (threads = 1) replays the identical stream. Each refresh re-runs
// only the steps and pieces whose inputs moved (DESIGN.md §5n, §5p).
// After every event round both sessions must hold the same knowledge
// base (KbDigest) and the same wrangled result, and a fixpoint audit
// with the piece caches dropped must find no step that still moves
// either KB. Runs in tier-1 ctest and the TSan CI job.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "wrangler/session.h"
#include "fixpoint_auditor.h"
#include "kb_digest_test_util.h"

namespace vada {
namespace {

Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

/// Sorted canonical rows of a relation (nullptr -> empty).
std::vector<std::string> Canonical(const Relation* rel) {
  std::vector<std::string> lines;
  if (rel == nullptr) return lines;
  lines.reserve(rel->rows().size());
  for (const Tuple& row : rel->rows()) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += '|';
      line += row.at(i).ToLiteral();
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

Status Bootstrap(WranglingSession* session, const GroundTruth& truth) {
  ExtractionErrorOptions rm;
  rm.seed = 31;
  ExtractionErrorOptions otm;
  otm.seed = 32;
  otm.coverage = 0.6;
  VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
  VADA_RETURN_IF_ERROR(session->AddSource(ExtractRightmove(truth, rm)));
  VADA_RETURN_IF_ERROR(session->AddSource(ExtractOnthemarket(truth, otm)));
  VADA_RETURN_IF_ERROR(session->AddSource(GenerateDeprivation(truth)));
  return Status::OK();
}

TEST(IncrementalSessionSoakTest, PooledSessionMatchesInlineEveryRound) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 40;
  uopts.num_postcodes = 8;
  uopts.seed = 11;
  GroundTruth truth = GeneratePropertyUniverse(uopts);

  FixpointAuditor pooled_auditor;
  WranglerConfig pooled_config;
  pooled_config.parallelism.threads = 3;
  pooled_config.transducer_decorator = pooled_auditor.Decorator();
  WranglingSession pooled(pooled_config);
  FixpointAuditor inline_auditor;
  WranglerConfig inline_config;
  inline_config.parallelism.threads = 1;
  inline_config.transducer_decorator = inline_auditor.Decorator();
  WranglingSession inline_run(inline_config);
  ASSERT_TRUE(Bootstrap(&pooled, truth).ok());
  ASSERT_TRUE(Bootstrap(&inline_run, truth).ok());

  Rng rng(2026);
  bool added_context = false;
  bool added_user_context = false;
  const int rounds = 10;
  for (int round = 0; round <= rounds; ++round) {
    if (round > 0) {
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // feedback on random current result rows
          const Relation* result = pooled.result();
          ASSERT_NE(result, nullptr);
          ASSERT_FALSE(result->rows().empty());
          int items = static_cast<int>(rng.UniformInt(1, 3));
          const std::vector<std::string> attrs = {"bedrooms", "price", ""};
          for (int i = 0; i < items; ++i) {
            const Tuple& row =
                result->rows()[rng.UniformInt(0, result->rows().size() - 1)];
            FeedbackItem item{row, attrs[rng.UniformInt(0, attrs.size() - 1)],
                              rng.Bernoulli(0.7)
                                  ? FeedbackPolarity::kIncorrect
                                  : FeedbackPolarity::kCorrect};
            ASSERT_TRUE(pooled.AddFeedback(item).ok());
            ASSERT_TRUE(inline_run.AddFeedback(item).ok());
          }
          break;
        }
        case 1: {  // a fresh batch of source rows trickles in
          PropertyUniverseOptions extra;
          extra.num_properties = static_cast<int>(rng.UniformInt(2, 5));
          extra.num_postcodes = 3;
          extra.seed = 1000 + round;
          GroundTruth more = GeneratePropertyUniverse(extra);
          ExtractionErrorOptions err;
          err.seed = 2000 + round;
          Relation batch = ExtractRightmove(more, err);
          ASSERT_TRUE(pooled.AddSource(batch).ok());
          ASSERT_TRUE(inline_run.AddSource(batch).ok());
          break;
        }
        case 2: {  // data context (once)
          if (added_context) continue;
          added_context = true;
          Relation address = GenerateAddressReference(truth);
          std::vector<ContextCorrespondence> corr = {
              {"street", "street"}, {"postcode", "postcode"}};
          ASSERT_TRUE(
              pooled.AddDataContext(address, RelationRole::kReference, corr)
                  .ok());
          ASSERT_TRUE(inline_run
                          .AddDataContext(address, RelationRole::kReference,
                                          corr)
                          .ok());
          break;
        }
        default: {  // user context (once)
          if (added_user_context) continue;
          added_user_context = true;
          UserContext uc;
          ASSERT_TRUE(uc.AddStatement("completeness", "crimerank",
                                      "very strongly", "completeness",
                                      "bedrooms")
                          .ok());
          ASSERT_TRUE(pooled.SetUserContext(uc).ok());
          ASSERT_TRUE(inline_run.SetUserContext(uc).ok());
          break;
        }
      }
    }
    Status sp = pooled.Run();
    ASSERT_TRUE(sp.ok()) << "round " << round << ": " << sp.ToString();
    EXPECT_EQ(pooled_auditor.Offenders(
                  &pooled.kb(), [&] { pooled.DropPieceCachesForTesting(); }),
              std::vector<std::string>{})
        << "round " << round;
    Status si = inline_run.Run();
    ASSERT_TRUE(si.ok()) << "round " << round << ": " << si.ToString();
    EXPECT_EQ(inline_auditor.Offenders(
                  &inline_run.kb(),
                  [&] { inline_run.DropPieceCachesForTesting(); }),
              std::vector<std::string>{})
        << "round " << round;
    EXPECT_EQ(KbDigest(pooled.kb()), KbDigest(inline_run.kb()))
        << "pooled/inline KB divergence at round " << round;
    EXPECT_EQ(Canonical(pooled.result()), Canonical(inline_run.result()))
        << "pooled/inline result divergence at round " << round;
  }

  // The pooled session really fanned its bodies out.
  EXPECT_GT(pooled.MetricsReport().snapshot.Value("vada_pool_tasks_total"),
            0.0);
}

}  // namespace
}  // namespace vada
