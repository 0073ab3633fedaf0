// Experiment E13 — parallel transducer bodies and the snapshot cache
// (DESIGN.md §5e), on the demonstration scenario:
//
//  1. body fan-out: the demo bootstrap at one thread and at the hardware
//     thread count (duplicate detection, mapping execution, quality and
//     instance matching split into pool tasks). Both runs must produce
//     the same result fingerprint; the bench exits 1 when they differ;
//  2. the session's one version-keyed snapshot cache, always on
//     (dependency scans and mapping execution stop re-copying relations
//     whose version did not move) — its hits and misses are reported,
//     and a standalone orchestrator over a scan-heavy KB shows the cache
//     against the copying path it replaced.
//
// Thread speedups track the host's real core count (recorded as
// hardware_threads): on a 1-core container both runs use one thread.
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "transducer/network.h"
#include "transducer/transducer.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("E13: parallel transducer bodies & snapshot cache\n\n");

  Scenario sc = MakeScenario(23, 300, 40);
  std::vector<Relation> sources = {sc.rightmove, sc.onthemarket,
                                   sc.deprivation};

  // One bootstrap per configuration; fresh session each time so no state
  // carries over. Returns wall ms, a fingerprint of the result rows in
  // stored order and the session cache's stats.
  struct RunOutcome {
    double ms = 0.0;
    size_t result_rows = 0;
    size_t fingerprint = 0;
    datalog::SnapshotCache::Stats cache;
  };
  auto bootstrap = [&](size_t threads) {
    WranglerConfig config;
    config.obs.enabled = false;
    config.parallelism.threads = threads;
    auto session = std::make_unique<WranglingSession>(config);
    Status s = session->SetTargetSchema(PaperTargetSchema());
    for (const Relation& src : sources) {
      if (s.ok()) s = session->AddSource(src);
    }
    if (s.ok()) s = session->AddDataContext(sc.address,
                                            RelationRole::kReference,
                                            {{"street", "street"},
                                             {"postcode", "postcode"}});
    RunOutcome out;
    out.ms = TimeMs([&] {
      if (s.ok()) s = session->Run();
    });
    if (!s.ok()) {
      std::fprintf(stderr, "bootstrap(threads=%zu) failed: %s\n", threads,
                   s.ToString().c_str());
      std::exit(1);
    }
    if (const Relation* result = session->result(); result != nullptr) {
      out.result_rows = result->size();
      std::string rows;
      for (const Tuple& row : result->rows()) {
        for (size_t i = 0; i < row.size(); ++i) {
          rows += row.at(i).ToLiteral();
          rows += '|';
        }
        rows += '\n';
      }
      out.fingerprint = std::hash<std::string>()(rows);
    }
    out.cache = session->snapshot_cache().stats();
    return out;
  };

  // Warm-up run so first-touch allocation noise does not land on the
  // one-thread baseline.
  (void)bootstrap(1);

  const size_t hardware = WranglerConfig().parallelism.threads;
  RunOutcome seq = bootstrap(1);
  RunOutcome pooled = bootstrap(hardware);
  const double pool_speedup = pooled.ms > 0 ? seq.ms / pooled.ms : 0.0;
  const bool same_result = pooled.fingerprint == seq.fingerprint &&
                           pooled.result_rows == seq.result_rows;

  double cache_hit_rate =
      seq.cache.hits + seq.cache.misses > 0
          ? static_cast<double>(seq.cache.hits) /
                static_cast<double>(seq.cache.hits + seq.cache.misses)
          : 0.0;

  Table table({"configuration", "threads=1 ms", "threads=N ms", "N",
               "speedup", "result rows", "same result"});
  table.AddRow({"demo bootstrap, body fan-out", Fmt(seq.ms, 1),
                Fmt(pooled.ms, 1), std::to_string(hardware),
                Fmt(pool_speedup, 2), std::to_string(seq.result_rows),
                same_result ? "yes" : "NO"});
  table.Print();
  std::printf("snapshot cache (threads=1): %llu hits, %llu misses\n",
              static_cast<unsigned long long>(seq.cache.hits),
              static_cast<unsigned long long>(seq.cache.misses));

  // Scan-dominated scale scenario: the configuration the cache was built
  // for. Many registered transducers whose input dependencies read large
  // relations. Every step writes, which reopens every transducer's
  // version gate, but no step writes a relation a dependency reads: the
  // dependency memo (DESIGN.md §5l) answers all but each query's first
  // evaluation, and the cache only shares the relation loads of those
  // first evaluations. Transducer bodies are trivial on purpose: this
  // isolates the orchestration overhead itself (the paper's
  // cost-effectiveness argument is about exactly this bookkeeping).
  auto scan_scenario = [&](bool use_cache) {
    KnowledgeBase kb;
    constexpr int kRelations = 8;
    constexpr int kRowsPerRelation = 20000;
    for (int r = 0; r < kRelations; ++r) {
      std::string name = "big" + std::to_string(r);
      Status cs = kb.CreateRelation(Schema::Untyped(name, {"k", "v"}));
      for (int i = 0; cs.ok() && i < kRowsPerRelation; ++i) {
        cs = kb.Insert(name, Tuple({Value::Int(i % 64), Value::Int(i)}));
      }
      if (!cs.ok()) {
        std::fprintf(stderr, "scan scenario setup failed: %s\n",
                     cs.ToString().c_str());
        std::exit(1);
      }
    }
    TransducerRegistry registry;
    for (int r = 0; r < kRelations; ++r) {
      std::string big = "big" + std::to_string(r);
      std::string mark = "mark" + std::to_string(r);
      Status as = registry.Add(std::make_unique<FunctionTransducer>(
          "t" + std::to_string(r), "scan",
          "ready() :- " + big + "(0, V).",
          [mark](KnowledgeBase* kb) -> Status {
            Relation out(Schema::Untyped(mark, {"x"}));
            VADA_RETURN_IF_ERROR(out.Insert(Tuple({Value::Int(1)})));
            return kb->ReplaceRelationIfChanged(out);
          }));
      if (!as.ok()) std::exit(1);
    }
    OrchestratorOptions options;
    datalog::SnapshotCache cache;
    if (use_cache) options.snapshot_cache = &cache;
    NetworkTransducer orchestrator(&registry,
                                   std::make_unique<FifoPolicy>(), options);
    OrchestrationStats stats;
    double ms = TimeMs([&] {
      Status rs = orchestrator.Run(&kb, &stats);
      if (!rs.ok()) {
        std::fprintf(stderr, "scan scenario run failed: %s\n",
                     rs.ToString().c_str());
        std::exit(1);
      }
    });
    return std::make_pair(ms, stats);
  };
  (void)scan_scenario(false);  // warm-up
  auto [scan_seq_ms, scan_stats] = scan_scenario(false);
  const double scan_cache_ms = scan_scenario(true).first;
  const size_t scan_checks = scan_stats.dependency_checks;
  double scan_speedup =
      scan_cache_ms > 0 ? scan_seq_ms / scan_cache_ms : 0.0;
  std::printf("\nscan-dominated orchestration (8 transducers x 20k-row "
              "dependencies, %zu dep checks evaluated, %zu memo hits):\n"
              "  no cache %.1f ms, snapshot cache %.1f ms (%.2fx)\n",
              scan_checks, scan_stats.dependency_memo_hits, scan_seq_ms,
              scan_cache_ms, scan_speedup);

  BenchReport report("parallel_eval");
  report.Add("bootstrap_threads1_ms", seq.ms);
  report.Add("bootstrap_threadsN_ms", pooled.ms);
  report.Add("bootstrap_threads", static_cast<double>(hardware));
  report.Add("pool_speedup", pool_speedup);
  report.Add("same_result", same_result ? 1.0 : 0.0);
  report.Add("snapshot_cache_hits", static_cast<double>(seq.cache.hits));
  report.Add("snapshot_cache_misses", static_cast<double>(seq.cache.misses));
  report.Add("snapshot_cache_hit_rate", cache_hit_rate);
  report.Add("scan_scenario_no_cache_ms", scan_seq_ms);
  report.Add("scan_scenario_cache_ms", scan_cache_ms);
  report.Add("scan_scenario_speedup", scan_speedup);
  report.Add("scan_scenario_dep_checks", static_cast<double>(scan_checks));
  report.Add("scan_scenario_dep_memo_hits",
             static_cast<double>(scan_stats.dependency_memo_hits));
  report.Add("result_rows", static_cast<double>(seq.result_rows));
  report.Add("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
  report.WriteJson();

  if (!same_result) {
    std::fprintf(stderr,
                 "FAIL: threads=%zu result fingerprint differs from "
                 "threads=1\n",
                 hardware);
    return 1;
  }
  std::printf(
      "\nnotes:\n"
      "  * the body fan-out merges its tasks in fixed order, so both\n"
      "    runs produce identical result rows in identical order (checked\n"
      "    here, and by parallel_eval_test and the golden tests);\n"
      "  * the snapshot cache is always on; it converts relation copies\n"
      "    into version checks, so it helps regardless of core count;\n"
      "  * pool speedups require real cores — compare against the\n"
      "    hardware_threads entry before reading anything into them.\n");
  return 0;
}
