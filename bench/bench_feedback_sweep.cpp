// Experiment E6 — impact of feedback (§3 goal ii): sweeps the number of
// attribute-level annotations on wrong bedroom counts and reports the
// plausibility of bedrooms in the final result plus the evidence
// revisions that caused it.
//
// Paper claim (shape): flagging incorrect values "will enable some of the
// previous steps in the wrangling process to be revisited, giving rise to
// a revised result" — more feedback, fewer implausible bedrooms, with
// diminishing returns once the offending match is decisively penalised.
// Exits non-zero when a session call fails or a shape check misses.
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("E6: feedback sweep (annotations on wrong bedroom counts)\n\n");

  Table table({"annotations", "bedrooms_plausible", "penalized matches",
               "rows", "overall"});
  size_t failures = 0;
  // Per budget: (budget, mean bedroom plausibility, mean penalties).
  std::vector<std::tuple<size_t, double, double>> sweep;
  for (size_t budget : {size_t{0}, size_t{5}, size_t{10}, size_t{20},
                        size_t{40}}) {
    double plausible = 0.0;
    double penalized = 0.0;
    double rows = 0.0;
    double overall = 0.0;
    const int kSeeds = 3;
    auto failed = [&](int seed, const Status& s) {
      std::fprintf(stderr, "budget %zu seed %d: %s\n", budget, seed,
                   s.ToString().c_str());
      ++failures;
    };
    for (int seed = 0; seed < kSeeds; ++seed) {
      Scenario sc = MakeScenario(600 + seed, 250, 35);
      WranglingSession session;
      Status s = session.SetTargetSchema(PaperTargetSchema());
      if (s.ok()) s = session.AddSource(sc.rightmove);
      if (s.ok()) s = session.AddSource(sc.onthemarket);
      if (s.ok()) s = session.AddSource(sc.deprivation);
      if (s.ok()) {
        s = session.AddDataContext(sc.address, RelationRole::kReference,
                                   {{"street", "street"},
                                    {"postcode", "postcode"}});
      }
      if (s.ok()) s = session.Run();
      if (!s.ok()) {
        failed(seed, s);
        continue;
      }

      // The user inspects the result in arbitrary order (seeded shuffle)
      // and flags implausible bedroom counts, up to the annotation budget.
      const Relation* result = session.result();
      size_t bed = *result->schema().AttributeIndex("bedrooms");
      std::vector<Tuple> review_order = result->rows();
      Rng rng(seed * 13 + 1);
      rng.Shuffle(&review_order);
      size_t flagged = 0;
      for (const Tuple& row : review_order) {
        if (flagged >= budget) break;
        std::optional<double> v = row.at(bed).AsDouble();
        if (v.has_value() && *v > 8.0) {
          session.AddFeedback(
              FeedbackItem{row, "bedrooms", FeedbackPolarity::kIncorrect});
          ++flagged;
        }
      }
      if (flagged > 0) {
        s = session.Run();
        if (!s.ok()) {
          failed(seed, s);
          continue;
        }
      }

      ScenarioEvaluation eval = EvaluateScenario(*session.result(), sc.truth);
      plausible += eval.bedrooms_plausible_rate / kSeeds;
      rows += static_cast<double>(eval.rows) / kSeeds;
      overall += eval.overall / kSeeds;
      const Relation* pen = session.kb().FindRelation("match_penalty");
      penalized +=
          (pen == nullptr ? 0.0 : static_cast<double>(pen->size())) / kSeeds;
    }
    table.AddRow({std::to_string(budget), Fmt(plausible), Fmt(penalized, 1),
                  Fmt(rows, 1), Fmt(overall)});
    sweep.emplace_back(budget, plausible, penalized);
  }
  table.Print();

  bool monotone = true;
  bool penalties = true;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& [budget, plausible, penalized] = sweep[i];
    if (i > 0 && plausible < std::get<1>(sweep[i - 1]) - 1e-9) {
      monotone = false;
    }
    if (budget > 0 && !(penalized > 0.0)) penalties = false;
  }
  std::printf(
      "\nshape checks vs paper narrative:\n"
      "  bedrooms_plausible non-decreasing in the budget: %s\n"
      "  penalties whenever the budget is above 0:        %s\n"
      "  failed sessions:                                 %zu\n",
      monotone ? "OK" : "MISS", penalties ? "OK" : "MISS", failures);
  return monotone && penalties && failures == 0 ? 0 : 1;
}
