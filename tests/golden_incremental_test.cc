// Golden pay-as-you-go regression test: the demo scenario is driven
// through a deterministic feedback/context/source event stream and the
// final fused result is compared against a canonical snapshot in
// tests/golden/. Every refresh re-runs only the steps and pieces whose
// inputs moved (DESIGN.md §5n, §5p); the snapshot must be reproduced
// exactly at the default thread count, inline (threads = 1) and on a
// four-thread pool, pinning down that the pool changes only how the
// result is computed, never what the user sees.
//
// Regenerate after an intentional semantic change with:
//   VADA_UPDATE_GOLDEN=1 ./tests/golden_incremental_test
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/schema.h"
#include "wrangler/session.h"

#ifndef VADA_GOLDEN_DIR
#error "VADA_GOLDEN_DIR must point at tests/golden"
#endif

namespace vada {
namespace {

const char kGoldenFile[] = VADA_GOLDEN_DIR "/incremental_result.txt";

std::vector<std::string> Canonicalize(const Relation& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows().size());
  for (const Tuple& row : result.rows()) {
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

/// The pay-as-you-go event stream: bootstrap, data context, feedback on
/// implausible bedroom counts, one late source batch. Deterministic —
/// every seed fixed, feedback rows chosen by a sorted scan.
std::vector<std::string> RunEventStream(const WranglerConfig& config) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 10;
  uopts.seed = 23;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm_err;
  rm_err.seed = 7;
  ExtractionErrorOptions otm_err;
  otm_err.seed = 8;
  otm_err.coverage = 0.6;

  WranglingSession session(config);
  Schema target = Schema::Untyped(
      "target", {"type", "description", "street", "postcode", "bedrooms",
                 "price", "crimerank"});
  EXPECT_TRUE(session.SetTargetSchema(target).ok());
  EXPECT_TRUE(session.AddSource(ExtractRightmove(truth, rm_err)).ok());
  EXPECT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm_err)).ok());
  EXPECT_TRUE(session.AddSource(GenerateDeprivation(truth)).ok());
  EXPECT_TRUE(session.Run().ok());

  EXPECT_TRUE(session
                  .AddDataContext(GenerateAddressReference(truth),
                                  RelationRole::kReference,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}})
                  .ok());
  EXPECT_TRUE(session.Run().ok());

  // Deterministic feedback: flag the first (in sorted order) rows whose
  // extracted bedroom count is implausible.
  const Relation* result = session.result();
  EXPECT_NE(result, nullptr);
  if (result == nullptr) return {};
  std::optional<size_t> bed_idx = result->schema().AttributeIndex("bedrooms");
  EXPECT_TRUE(bed_idx.has_value());
  std::vector<Tuple> rows = result->rows();
  std::sort(rows.begin(), rows.end());
  size_t flagged = 0;
  for (const Tuple& row : rows) {
    std::optional<double> d = row.at(*bed_idx).AsDouble();
    if (d.has_value() && *d > 8.0) {
      EXPECT_TRUE(session
                      .AddFeedback(FeedbackItem{row, "bedrooms",
                                                FeedbackPolarity::kIncorrect})
                      .ok());
      if (++flagged >= 5) break;
    }
  }
  EXPECT_TRUE(session.Run().ok());

  // A late source batch from a disjoint universe trickles in.
  PropertyUniverseOptions extra;
  extra.num_properties = 4;
  extra.num_postcodes = 2;
  extra.seed = 99;
  ExtractionErrorOptions extra_err;
  extra_err.seed = 9;
  EXPECT_TRUE(
      session.AddSource(ExtractRightmove(GeneratePropertyUniverse(extra),
                                         extra_err))
          .ok());
  EXPECT_TRUE(session.Run().ok());

  EXPECT_NE(session.result(), nullptr);
  if (session.result() == nullptr) return {};
  return Canonicalize(*session.result());
}

std::vector<std::string> ReadGolden() {
  std::ifstream in(kGoldenFile);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(GoldenIncrementalTest, FeedbackStreamMatchesGoldenAtEveryThreadCount) {
  std::vector<std::string> baseline = RunEventStream(WranglerConfig());
  ASSERT_FALSE(baseline.empty());

  if (std::getenv("VADA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::trunc);
    for (const std::string& line : baseline) out << line << "\n";
    ASSERT_TRUE(out.good()) << "failed to write " << kGoldenFile;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenFile;
  }

  std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden snapshot " << kGoldenFile
      << " — run with VADA_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(baseline, golden);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    WranglerConfig config;
    config.parallelism.threads = threads;
    EXPECT_EQ(RunEventStream(config), golden);
  }
}

}  // namespace
}  // namespace vada
