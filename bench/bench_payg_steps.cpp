// Experiment E4 — the paper's evaluation: the demonstration protocol
// (§3 steps 1-4) as a measurable pay-as-you-go curve. For each step we
// report result size and truth-based quality, averaged over seeds.
//
// Paper claim (shape): "a pay-as-you-go approach ... in which the more
// information is provided by the user, the better the outcome", with
// the individual inputs acting where the narrative says they act —
// data context widens coverage and enables repair, feedback fixes the
// flagged attribute (bedrooms), user context steers selection toward the
// user's priorities (crimerank completeness). Exits non-zero when a
// shape check misses.
#include "bench/bench_util.h"
#include "common/rng.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

namespace vada::bench {
namespace {

struct StepResult {
  ScenarioEvaluation eval;
  size_t selected = 0;
};

struct RunResults {
  StepResult step[4];
};

RunResults RunProtocol(uint64_t seed) {
  Scenario sc = MakeScenario(seed);
  WranglingSession session;
  Status s = session.SetTargetSchema(PaperTargetSchema());
  if (s.ok()) s = session.AddSource(sc.rightmove);
  if (s.ok()) s = session.AddSource(sc.onthemarket);
  if (s.ok()) s = session.AddSource(sc.deprivation);
  RunResults out;

  auto record = [&](int step) {
    out.step[step].eval = EvaluateScenario(*session.result(), sc.truth);
    out.step[step].selected = session.selected_mappings().size();
  };

  // Step 1: bootstrap.
  if (s.ok()) s = session.Run();
  if (!s.ok()) {
    std::fprintf(stderr, "seed %llu step1: %s\n",
                 static_cast<unsigned long long>(seed), s.ToString().c_str());
    return out;
  }
  record(0);

  // Step 2: + data context.
  s = session.AddDataContext(sc.address, RelationRole::kReference,
                             {{"street", "street"}, {"postcode", "postcode"}});
  if (s.ok()) s = session.Run();
  if (!s.ok()) return out;
  record(1);

  // Step 3: + feedback on implausible bedrooms. The user reviews rows in
  // arbitrary order (seeded shuffle), not in the result's union order —
  // otherwise the annotations would be biased toward whichever mapping's
  // rows happen to come first.
  {
    const Relation* result = session.result();
    size_t bed = *result->schema().AttributeIndex("bedrooms");
    std::vector<Tuple> rows = result->rows();
    Rng rng(seed * 7 + 3);
    rng.Shuffle(&rows);
    size_t flagged = 0;
    for (const Tuple& row : rows) {
      std::optional<double> v = row.at(bed).AsDouble();
      if (v.has_value() && *v > 8.0) {
        session.AddFeedback(
            FeedbackItem{row, "bedrooms", FeedbackPolarity::kIncorrect});
        if (++flagged >= 20) break;
      }
    }
  }
  s = session.Run();
  if (!s.ok()) return out;
  record(2);

  // Step 4: + user context (Figure 2(d) priorities).
  UserContext uc;
  uc.AddStatement("completeness", "crimerank", "very strongly", "accuracy",
                  "property.type");
  uc.AddStatement("consistency", "property", "strongly", "completeness",
                  "property.bedrooms");
  uc.AddStatement("completeness", "property.street", "moderately",
                  "completeness", "property.postcode");
  s = session.SetUserContext(uc);
  if (s.ok()) s = session.Run();
  if (!s.ok()) return out;
  record(3);
  return out;
}

}  // namespace
}  // namespace vada::bench

int main() {
  using namespace vada::bench;
  std::printf("E4: pay-as-you-go demonstration protocol (paper §3)\n");
  std::printf("averaged over 5 seeds, 300 properties, 40 postcodes\n\n");

  const char* kStepNames[] = {"1 bootstrap", "2 +data context", "3 +feedback",
                              "4 +user context"};
  const int kSeeds = 5;
  double rows[4] = {0};
  double crime[4] = {0};
  double beds[4] = {0};
  double pc[4] = {0};
  double cover[4] = {0};
  double overall[4] = {0};
  double selected[4] = {0};
  for (int seed = 0; seed < kSeeds; ++seed) {
    RunResults r = RunProtocol(1000 + seed);
    for (int st = 0; st < 4; ++st) {
      rows[st] += static_cast<double>(r.step[st].eval.rows) / kSeeds;
      crime[st] += r.step[st].eval.crimerank_completeness / kSeeds;
      beds[st] += r.step[st].eval.bedrooms_plausible_rate / kSeeds;
      pc[st] += r.step[st].eval.postcode_valid_rate / kSeeds;
      cover[st] += r.step[st].eval.coverage / kSeeds;
      overall[st] += r.step[st].eval.overall / kSeeds;
      selected[st] += static_cast<double>(r.step[st].selected) / kSeeds;
    }
  }

  Table table({"step", "rows", "selected", "crimerank_compl",
               "bedrooms_plaus", "postcode_valid", "coverage", "overall"});
  for (int st = 0; st < 4; ++st) {
    table.AddRow({kStepNames[st], Fmt(rows[st], 1), Fmt(selected[st], 1),
                  Fmt(crime[st]), Fmt(beds[st]), Fmt(pc[st]), Fmt(cover[st]),
                  Fmt(overall[st])});
  }
  table.Print();

  const bool context_ok = cover[1] > cover[0];
  const bool feedback_ok = beds[2] > beds[1];
  const bool user_ok = crime[3] >= crime[2];
  std::printf(
      "\nshape checks vs paper narrative:\n"
      "  data context widens coverage:        %s (%.3f -> %.3f)\n"
      "  feedback lifts bedroom plausibility: %s (%.3f -> %.3f)\n"
      "  user context lifts crimerank compl.: %s (%.3f -> %.3f)\n",
      context_ok ? "OK" : "MISS", cover[0], cover[1],
      feedback_ok ? "OK" : "MISS", beds[1], beds[2],
      user_ok ? "OK" : "MISS", crime[2], crime[3]);

  BenchReport report("payg_steps");
  const char* kStepKeys[] = {"step1", "step2", "step3", "step4"};
  for (int st = 0; st < 4; ++st) {
    report.Add(std::string(kStepKeys[st]) + "_rows", rows[st]);
    report.Add(std::string(kStepKeys[st]) + "_coverage", cover[st]);
    report.Add(std::string(kStepKeys[st]) + "_overall", overall[st]);
  }
  report.WriteJson();
  // A shape the paper's narrative predicts did not show: fail the run.
  return context_ok && feedback_ok && user_ok ? 0 : 1;
}
