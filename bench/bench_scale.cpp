// Experiment S1 (extension beyond the paper): end-to-end scalability of
// the full wrangle — universe size vs wall time, with the per-activity
// split, so adopters can see where time goes as data grows.
//
// Expected shape: mapping execution (reasoner joins over source
// instances) dominates and grows roughly linearly with rows at these
// scales; orchestration overhead (dependency checks, and the memo hits
// that replace most of them) grows with the number of relations, not
// with data volume.
#include <map>

#include "bench/bench_util.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("S1: end-to-end scalability\n\n");

  Table table({"properties", "source rows", "result rows", "steps",
               "dep checks", "memo hits", "total ms", "execution ms",
               "fusion ms"});
  for (size_t properties : {100, 300, 1000, 3000}) {
    Scenario sc = MakeScenario(3000 + properties, properties,
                               std::max<size_t>(12, properties / 10));
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
    OrchestrationStats stats;
    double total_ms = TimeMs([&] {
      if (s.ok()) s = session.Run(&stats);
    });
    if (!s.ok()) {
      std::fprintf(stderr, "properties %zu: %s\n", properties,
                   s.ToString().c_str());
      continue;
    }
    std::map<std::string, double> per_activity;
    for (const TraceEvent& e : session.trace().events()) {
      per_activity[e.activity] += e.duration_ms;
    }
    size_t source_rows =
        sc.rightmove.size() + sc.onthemarket.size() + sc.deprivation.size();
    table.AddRow({std::to_string(properties), std::to_string(source_rows),
                  std::to_string(session.result()->size()),
                  std::to_string(stats.steps),
                  std::to_string(stats.dependency_checks),
                  std::to_string(stats.dependency_memo_hits), Fmt(total_ms, 0),
                  Fmt(per_activity["execution"], 0),
                  Fmt(per_activity["fusion"], 0)});
  }
  table.Print();
  return 0;
}
