// Golden orchestration-trace regression test: the demo scenario is
// driven through a pay-as-you-go event stream (bootstrap, data context,
// feedback, a late source batch, a user-context switch) and every
// orchestration step — which transducer ran, the KB versions and fact
// counts around it — is checked against the canonical trace in
// tests/golden/. The snapshot pins the orchestrator's scheduling
// decisions, not just the final result.
//
// The committed file predates read-set scheduling (DESIGN.md §5n), when
// every ready transducer re-ran after any KB write, and it stays frozen:
// skipping a step whose read set has not moved may remove no-op steps
// but never change an effective one, so the steps that change the KB
// must reproduce the file's effective steps exactly, in order. The
// number of steps per Run is pinned separately. A fault-injected variant
// (rollbacks, retries, quarantine probes) must end on the plain
// variant's knowledge base, and a pooled run must repeat every step of
// the sequential one.
#include <algorithm>
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
#include "kb_digest_test_util.h"

#ifndef VADA_GOLDEN_DIR
#error "VADA_GOLDEN_DIR must point at tests/golden"
#endif

namespace vada {
namespace {

const char kGoldenFile[] = VADA_GOLDEN_DIR "/orchestration_trace.txt";

/// One line per step, tagged with the scenario and the Run it belongs to,
/// in the golden file's format. Durations and timestamps are left out;
/// everything else in a step is deterministic.
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

/// The steps of one scenario plus where its knowledge base ended.
struct ScenarioTrace {
  std::vector<std::string> lines;
  std::vector<size_t> steps_per_run;
  std::string digest;
};

/// Runs the event stream and returns the canonical trace of every Run.
ScenarioTrace RunScenario(const std::string& tag,
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
  ScenarioTrace out;
  size_t run = 0;
  auto run_and_record = [&]() {
    size_t before = session.trace().size();
    Status s = session.Run();
    EXPECT_TRUE(s.ok()) << tag << " run " << run << ": " << s.ToString();
    const std::vector<TraceEvent>& events = session.trace().events();
    for (size_t i = before; i < events.size(); ++i) {
      out.lines.push_back(StepLine(tag, run, events[i]));
    }
    out.steps_per_run.push_back(events.size() - before);
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
  if (result == nullptr) return out;
  std::optional<size_t> bed_idx = result->schema().AttributeIndex("bedrooms");
  EXPECT_TRUE(bed_idx.has_value());
  if (!bed_idx.has_value()) return out;
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
  out.digest = KbDigest(session.kb());
  return out;
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

/// Fields of a golden-format step line that a read-set schedule keeps:
/// scenario, Run, transducer, versions, fact counts, attempts and
/// rollback — the step number and the eligible set are left out. Empty
/// when the step did not change the KB.
std::string EffectiveStep(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t bar = line.find('|'); bar != std::string::npos;
       bar = line.find('|', start)) {
    fields.push_back(line.substr(start, bar - start));
    start = bar + 1;
  }
  fields.push_back(line.substr(start));
  // tag|run|step|transducer|vA->B|+x/-y|attempts=n[|rolled_back]|eligible=
  if (fields.size() < 8) return "malformed: " + line;
  const std::string& versions = fields[4];
  size_t arrow = versions.find("->");
  if (versions.substr(1, arrow - 1) == versions.substr(arrow + 2)) return "";
  std::string kept = fields[0] + "|" + fields[1];
  for (size_t i = 3; i + 1 < fields.size(); ++i) kept += "|" + fields[i];
  return kept;
}

std::vector<std::string> EffectiveSteps(const std::vector<std::string>& lines,
                                        const std::string& tag) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (line.rfind(tag + "|", 0) != 0) continue;
    std::string step = EffectiveStep(line);
    if (!step.empty()) out.push_back(step);
  }
  return out;
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
  std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing golden trace " << kGoldenFile;
  const std::vector<std::string> golden_effective =
      EffectiveSteps(golden, "plain");
  ASSERT_EQ(golden_effective.size(), 34u);

  ScenarioTrace plain = RunScenario("plain", WranglerConfig());
  std::vector<std::string> effective = EffectiveSteps(plain.lines, "plain");
  ASSERT_EQ(effective.size(), golden_effective.size());
  for (size_t i = 0; i < golden_effective.size(); ++i) {
    ASSERT_EQ(effective[i], golden_effective[i])
        << "first divergence at effective step " << i;
  }
  // Bootstrap, data context, one incorrect and one correct annotation,
  // a late source batch, a user-context switch, and a Run with nothing
  // new: 42 steps where the golden file has 315. Schema matching reads
  // source schemas only, so the source batch does not re-run it.
  EXPECT_EQ(plain.steps_per_run,
            (std::vector<size_t>{10, 11, 4, 4, 11, 2, 0}));

  FaultInjector injector = MakeInjector();
  ScenarioTrace faults = RunScenario("faults", FaultConfig(injector));
  EXPECT_EQ(faults.digest, plain.digest);
  EXPECT_TRUE(std::any_of(
      faults.lines.begin(), faults.lines.end(), [](const std::string& line) {
        return line.find("|rolled_back") != std::string::npos;
      }))
      << "the injected faults never fired";

  // The pool evaluates memo misses concurrently over the shared
  // snapshot cache; that may not change a decision.
  WranglerConfig pooled;
  pooled.parallelism.threads = 4;
  EXPECT_EQ(RunScenario("plain", pooled).lines, plain.lines);
  WranglerConfig pooled_faults = FaultConfig(injector);
  pooled_faults.parallelism = pooled.parallelism;
  EXPECT_EQ(RunScenario("faults", pooled_faults).lines, faults.lines);

  // The default fans bodies out over the pool; one thread, the
  // reference, takes every decision the same way.
  WranglerConfig one_thread;
  one_thread.parallelism.threads = 1;
  ScenarioTrace plain_inline = RunScenario("plain", one_thread);
  EXPECT_EQ(plain_inline.lines, plain.lines);
  EXPECT_EQ(plain_inline.digest, plain.digest);
  WranglerConfig faults_inline = FaultConfig(injector);
  faults_inline.parallelism = one_thread.parallelism;
  EXPECT_EQ(RunScenario("faults", faults_inline).lines, faults.lines);
}

}  // namespace
}  // namespace vada
