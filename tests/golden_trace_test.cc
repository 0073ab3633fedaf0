// Golden orchestration-trace regression test: the demo scenario is
// driven through a pay-as-you-go event stream (bootstrap, data context,
// feedback, a late source batch, a user-context switch) and every
// orchestration step — which transducer ran, which were eligible, the KB
// versions and fact counts around it — is compared against a canonical
// trace in tests/golden/. The snapshot pins the orchestrator's
// scheduling decisions, not just the final result: an optimisation of
// the eligibility scan (the dependency memo, parallel scans, snapshot
// sharing) may change how the eligible set is computed, never what it
// is. A fault-injected variant pins the same for the failure path
// (rollbacks, retries, quarantine probes).
//
// Regenerate after an intentional scheduling change with:
//   VADA_UPDATE_GOLDEN=1 ./tests/golden_trace_test
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
#include "transducer/fault_injection.h"
#include "wrangler/session.h"

#ifndef VADA_GOLDEN_DIR
#error "VADA_GOLDEN_DIR must point at tests/golden"
#endif

namespace vada {
namespace {

const char kGoldenFile[] = VADA_GOLDEN_DIR "/orchestration_trace.txt";

/// One line per step, tagged with the scenario and the Run it belongs to.
/// Durations and timestamps are left out; everything else in a step is
/// deterministic.
std::string StepLine(const std::string& tag, size_t run,
                     const TraceEvent& e) {
  std::string line = tag + "|run" + std::to_string(run) + "|step" +
                     std::to_string(e.step) + "|" + e.transducer + "|v" +
                     std::to_string(e.version_before) + "->" +
                     std::to_string(e.version_after) + "|+" +
                     std::to_string(e.facts_added) + "/-" +
                     std::to_string(e.facts_removed) + "|attempts=" +
                     std::to_string(e.attempts) +
                     (e.rolled_back ? "|rolled_back" : "") + "|eligible=";
  for (size_t i = 0; i < e.eligible.size(); ++i) {
    if (i > 0) line += ',';
    line += e.eligible[i];
  }
  return line;
}

/// Runs the event stream and returns the canonical trace of every Run.
std::vector<std::string> RunScenario(const std::string& tag,
                                     const WranglerConfig& config) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 10;
  uopts.seed = 29;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm_err;
  rm_err.seed = 11;
  ExtractionErrorOptions otm_err;
  otm_err.seed = 12;
  otm_err.coverage = 0.6;

  WranglingSession session(config);
  std::vector<std::string> lines;
  size_t run = 0;
  auto run_and_record = [&]() {
    size_t before = session.trace().size();
    Status s = session.Run();
    EXPECT_TRUE(s.ok()) << tag << " run " << run << ": " << s.ToString();
    const std::vector<TraceEvent>& events = session.trace().events();
    for (size_t i = before; i < events.size(); ++i) {
      lines.push_back(StepLine(tag, run, events[i]));
    }
    ++run;
  };

  Schema target = Schema::Untyped(
      "target", {"type", "description", "street", "postcode", "bedrooms",
                 "price", "crimerank"});
  EXPECT_TRUE(session.SetTargetSchema(target).ok());
  EXPECT_TRUE(session.AddSource(ExtractRightmove(truth, rm_err)).ok());
  EXPECT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm_err)).ok());
  EXPECT_TRUE(session.AddSource(GenerateDeprivation(truth)).ok());
  run_and_record();

  EXPECT_TRUE(session
                  .AddDataContext(GenerateAddressReference(truth),
                                  RelationRole::kReference,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}})
                  .ok());
  run_and_record();

  // Feedback on the first (in sorted order) rows with an implausible
  // bedroom count, then one correct annotation: one Run per annotation,
  // the interactive path the dependency memo serves.
  const Relation* result = session.result();
  EXPECT_NE(result, nullptr);
  if (result == nullptr) return lines;
  std::optional<size_t> bed_idx = result->schema().AttributeIndex("bedrooms");
  EXPECT_TRUE(bed_idx.has_value());
  if (!bed_idx.has_value()) return lines;
  std::vector<Tuple> rows = result->rows();
  std::sort(rows.begin(), rows.end());
  size_t flagged = 0;
  for (const Tuple& row : rows) {
    std::optional<double> d = row.at(*bed_idx).AsDouble();
    if (!d.has_value() || *d <= 8.0) continue;
    EXPECT_TRUE(session
                    .AddFeedback(FeedbackItem{row, "bedrooms",
                                              FeedbackPolarity::kIncorrect})
                    .ok());
    run_and_record();
    if (++flagged >= 3) break;
  }
  if (!rows.empty()) {
    EXPECT_TRUE(session
                    .AddFeedback(FeedbackItem{rows.front(), "bedrooms",
                                              FeedbackPolarity::kCorrect})
                    .ok());
    run_and_record();
  }

  PropertyUniverseOptions extra;
  extra.num_properties = 4;
  extra.num_postcodes = 2;
  extra.seed = 97;
  ExtractionErrorOptions extra_err;
  extra_err.seed = 13;
  EXPECT_TRUE(
      session.AddSource(ExtractRightmove(GeneratePropertyUniverse(extra),
                                         extra_err))
          .ok());
  run_and_record();

  UserContext uc;
  EXPECT_TRUE(uc.AddStatement("completeness", "crimerank", "very strongly",
                              "completeness", "bedrooms")
                  .ok());
  EXPECT_TRUE(session.SetUserContext(uc).ok());
  run_and_record();

  // Nothing new: a fixpoint Run must not execute anything.
  run_and_record();
  return lines;
}

WranglerConfig FaultConfig(const FaultInjector& injector) {
  WranglerConfig config;
  config.fault_tolerance.sleep_ms = [](double) {};
  config.transducer_decorator = injector.Decorator();
  return config;
}

FaultInjector MakeInjector() {
  FaultInjector::Options fopt;
  fopt.seed = 17;
  fopt.fault_rate = 0.5;
  fopt.max_failures = 2;
  return FaultInjector(fopt);
}

std::vector<std::string> RunAll(const WranglerConfig& plain,
                                const WranglerConfig& faults) {
  std::vector<std::string> lines = RunScenario("plain", plain);
  std::vector<std::string> faulted = RunScenario("faults", faults);
  lines.insert(lines.end(), faulted.begin(), faulted.end());
  return lines;
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

TEST(GoldenTraceTest, SchedulingDecisionsMatchGolden) {
  FaultInjector injector = MakeInjector();
  std::vector<std::string> baseline =
      RunAll(WranglerConfig(), FaultConfig(injector));
  ASSERT_FALSE(baseline.empty());

  if (std::getenv("VADA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::trunc);
    for (const std::string& line : baseline) out << line << "\n";
    ASSERT_TRUE(out.good()) << "failed to write " << kGoldenFile;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenFile;
  }

  std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden trace " << kGoldenFile
      << " — run with VADA_UPDATE_GOLDEN=1 to create it";
  ASSERT_EQ(baseline.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(baseline[i], golden[i]) << "first divergence at line " << i;
  }

  // The pool evaluates memo misses concurrently over the shared
  // snapshot cache; that may not change a decision.
  WranglerConfig pooled;
  pooled.parallelism.threads = 4;
  WranglerConfig pooled_faults = FaultConfig(injector);
  pooled_faults.parallelism = pooled.parallelism;
  EXPECT_EQ(RunAll(pooled, pooled_faults), golden);
}

}  // namespace
}  // namespace vada
