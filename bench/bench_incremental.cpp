// Experiment I1 (extension beyond the paper): the pay-as-you-go event
// stream. Source batches trickle into one WranglingSession; after each
// batch the session refreshes, re-running only the steps and pieces
// whose inputs moved (DESIGN.md §5n, §5p). Reports the wall time of the
// bootstrap plus 30 refreshes and the result rows; exits 1 if the
// session fails.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;
  std::printf("I1: pay-as-you-go session stream\n\n");
  BenchReport report("incremental");

  const int kBatches = 30;
  Scenario sc = MakeScenario(4000, 300, 40);
  WranglerConfig config;
  WranglingSession session(config);
  Status s = session.SetTargetSchema(PaperTargetSchema());
  if (s.ok()) s = session.AddSource(sc.rightmove);
  if (s.ok()) s = session.AddSource(sc.onthemarket);
  if (s.ok()) s = session.AddSource(sc.deprivation);
  if (s.ok()) {
    s = session.AddDataContext(sc.address, RelationRole::kReference,
                               {{"street", "street"},
                                {"postcode", "postcode"}});
  }
  double ms = TimeMs([&] {
    if (s.ok()) s = session.Run();
    for (uint64_t e = 0; s.ok() && e < kBatches; ++e) {
      Scenario more = MakeScenario(5000 + e, 2, 2);
      s = session.AddSource(more.rightmove);
      if (s.ok()) s = session.Run();
    }
  });
  if (!s.ok()) {
    std::fprintf(stderr, "session: %s\n", s.ToString().c_str());
    return 1;
  }
  size_t rows = session.result() != nullptr ? session.result()->size() : 0;

  Table table({"workload", "batches", "ms", "result rows"});
  table.AddRow({"session_30_batches", std::to_string(kBatches), Fmt(ms, 0),
                std::to_string(rows)});
  table.Print();
  report.Add("session_30_batches_ms", ms);
  report.Add("session_30_batches_result_rows", static_cast<double>(rows));
  report.WriteJson();
  return 0;
}
