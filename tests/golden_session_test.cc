// Golden end-to-end regression test: a fixed demo scenario (two
// deep-web property sources, seeded extraction errors) is wrangled by a
// full WranglingSession bootstrap and the fused result relation is
// compared against a canonical snapshot checked into tests/golden/.
// Every planner configuration — oracle, indexes, reorder, parallel —
// must reproduce the snapshot exactly, pinning down both the wrangling
// semantics and the planner's output-preservation guarantee.
//
// Regenerate the snapshot after an intentional semantic change with:
//   VADA_UPDATE_GOLDEN=1 ./tests/golden_session_test
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extract/real_estate.h"
#include "kb/schema.h"
#include "wrangler/session.h"
#include "fixpoint_auditor.h"

#ifndef VADA_GOLDEN_DIR
#error "VADA_GOLDEN_DIR must point at tests/golden"
#endif

namespace vada {
namespace {

const char kGoldenFile[] = VADA_GOLDEN_DIR "/wrangled_result.txt";

/// Canonical form of the result relation: one line per row, cells as
/// unambiguous literals joined by '|', rows sorted. Sorting makes the
/// snapshot independent of derivation order, which `reorder` is allowed
/// to permute (the fact *set* is the guarantee, DESIGN.md §5f).
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

std::vector<std::string> RunDemoScenario(const WranglerConfig& config) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 80;
  uopts.num_postcodes = 12;
  uopts.seed = 21;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm_err;
  rm_err.seed = 5;
  ExtractionErrorOptions otm_err;
  otm_err.seed = 6;

  FixpointAuditor auditor;
  WranglerConfig audited = config;
  audited.transducer_decorator = auditor.Decorator(config.transducer_decorator);
  WranglingSession session(audited);
  Schema target = Schema::Untyped(
      "target",
      {"type", "description", "street", "postcode", "bedrooms", "price",
       "crimerank"});
  EXPECT_TRUE(session.SetTargetSchema(target).ok());
  EXPECT_TRUE(session.AddSource(ExtractRightmove(truth, rm_err)).ok());
  EXPECT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm_err)).ok());
  EXPECT_TRUE(session.Run().ok());
  EXPECT_EQ(auditor.Offenders(&session.kb(),
                              [&] { session.DropPieceCachesForTesting(); }),
            std::vector<std::string>{});
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

TEST(GoldenSessionTest, DemoScenarioMatchesGoldenUnderAllPlannerConfigs) {
  std::vector<std::string> baseline = RunDemoScenario(WranglerConfig());
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

  struct Variant {
    const char* name;
    WranglerConfig config;
  };
  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "oracle (full scans, legacy order)";
    v.config.planner = {.indexes = false, .reorder = false};
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "indexes only, tiny gate";
    v.config.planner = {.indexes = true, .reorder = false,
                        .min_index_size = 1};
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "reorder only";
    v.config.planner = {.indexes = false, .reorder = true};
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "threads = 4";
    v.config.parallelism.threads = 4;
    variants.push_back(v);
  }
  {
    // The default runs bodies on the pool; one thread is the reference.
    Variant v;
    v.name = "threads = 1";
    v.config.parallelism.threads = 1;
    variants.push_back(v);
  }
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    EXPECT_EQ(RunDemoScenario(v.config), golden);
  }
}

}  // namespace
}  // namespace vada
