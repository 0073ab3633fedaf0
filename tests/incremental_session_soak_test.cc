// Feedback-stream soak for differential maintenance (DESIGN.md §5k):
// a session with config.incremental.enabled replays a seeded stream of
// interleaved feedback, data-context, user-context and source events;
// a shadow oracle session with maintenance off replays the identical
// stream. After every event round the two wrangled results must be
// row-identical — the session-level counterpart of the 500-program
// engine fuzz in datalog_differential_test.cc. Runs in tier-1 ctest and
// the TSan CI job (the incremental session also runs a worker pool).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "wrangler/session.h"
#include "fixpoint_auditor.h"

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

TEST(IncrementalSessionSoakTest, EventStreamMatchesFullRerunOracle) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 40;
  uopts.num_postcodes = 8;
  uopts.seed = 11;
  GroundTruth truth = GeneratePropertyUniverse(uopts);

  FixpointAuditor inc_auditor;
  WranglerConfig inc_config;
  inc_config.incremental.enabled = true;
  // Pool-backed: the fanned-out bodies run next to the serial delta
  // path, under the TSan job's eye.
  inc_config.parallelism.threads = 3;
  inc_config.transducer_decorator = inc_auditor.Decorator();
  WranglingSession incremental(inc_config);
  FixpointAuditor oracle_auditor;
  WranglerConfig oracle_config;  // defaults: full re-execution every round
  oracle_config.transducer_decorator = oracle_auditor.Decorator();
  WranglingSession oracle(oracle_config);
  ASSERT_TRUE(Bootstrap(&incremental, truth).ok());
  ASSERT_TRUE(Bootstrap(&oracle, truth).ok());

  Rng rng(2026);
  bool added_context = false;
  bool added_user_context = false;
  const int rounds = 10;
  for (int round = 0; round <= rounds; ++round) {
    if (round > 0) {
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // feedback on random current result rows
          const Relation* result = incremental.result();
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
            ASSERT_TRUE(incremental.AddFeedback(item).ok());
            ASSERT_TRUE(oracle.AddFeedback(item).ok());
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
          ASSERT_TRUE(incremental.AddSource(batch).ok());
          ASSERT_TRUE(oracle.AddSource(batch).ok());
          break;
        }
        case 2: {  // data context (once)
          if (added_context) continue;
          added_context = true;
          Relation address = GenerateAddressReference(truth);
          std::vector<ContextCorrespondence> corr = {
              {"street", "street"}, {"postcode", "postcode"}};
          ASSERT_TRUE(incremental
                          .AddDataContext(address, RelationRole::kReference,
                                          corr)
                          .ok());
          ASSERT_TRUE(
              oracle.AddDataContext(address, RelationRole::kReference, corr)
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
          ASSERT_TRUE(incremental.SetUserContext(uc).ok());
          ASSERT_TRUE(oracle.SetUserContext(uc).ok());
          break;
        }
      }
    }
    Status si = incremental.Run();
    ASSERT_TRUE(si.ok()) << "round " << round << ": " << si.ToString();
    EXPECT_EQ(inc_auditor.Offenders(
                  &incremental.kb(),
                  [&] { incremental.DropPieceCachesForTesting(); }),
              std::vector<std::string>{})
        << "round " << round;
    Status so = oracle.Run();
    ASSERT_TRUE(so.ok()) << "round " << round << ": " << so.ToString();
    EXPECT_EQ(oracle_auditor.Offenders(
                  &oracle.kb(), [&] { oracle.DropPieceCachesForTesting(); }),
              std::vector<std::string>{})
        << "round " << round;
    EXPECT_EQ(Canonical(incremental.result()), Canonical(oracle.result()))
        << "incremental/full divergence at round " << round;
  }

  // The stream must actually have exercised the delta path, not just
  // re-initialised every round.
  ASSERT_NE(incremental.delta_log(), nullptr);
  uint64_t applies = 0;
  for (const auto& [id, mds] : incremental.state().mapping_delta) {
    if (mds.eval != nullptr) applies += mds.eval->lifetime_stats().applies;
  }
  EXPECT_GT(applies, 0u) << "no delta batch ever reached an evaluator";
  Result<std::string> plan = incremental.ExplainIncremental();
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("plan"), std::string::npos) << plan.value();
  // The oracle session has no log and must say so.
  EXPECT_EQ(oracle.ExplainIncremental().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace vada
