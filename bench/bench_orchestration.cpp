// Experiment E8 — dynamic orchestration vs. static ETL (§1, §3 goal iii):
// quantifies what the dynamic network transducer costs and buys relative
// to the fixed pre-configured pipeline the paper positions itself
// against.
//
// Paper claim (shape): comparable scope to ETL with less configuration;
// dynamic orchestration additionally reacts to *incremental* inputs —
// re-running only what new information enables — where an ETL pipeline
// must re-run from scratch.
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "wrangler/etl_baseline.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("E8: dynamic orchestration vs static ETL pipeline\n\n");

  Scenario sc = MakeScenario(11, 300, 40);
  std::vector<Relation> sources = {sc.rightmove, sc.onthemarket,
                                   sc.deprivation};

  // --- Static ETL: one fixed-order pass. ---
  EtlPipeline etl;
  EtlReport etl_report;
  Result<Relation> etl_result(Relation{});
  double etl_ms = TimeMs([&] {
    etl_result = etl.Run(PaperTargetSchema(), sources, &etl_report);
  });
  if (!etl_result.ok()) {
    std::fprintf(stderr, "etl failed: %s\n", etl_result.status().ToString().c_str());
    return 1;
  }
  ScenarioEvaluation etl_eval = EvaluateScenario(etl_result.value(), sc.truth);

  // --- Dynamic VADA: bootstrap. Observability off: this bench is the
  // pay-for-what-you-use check — instrumentation must cost nothing when
  // disabled (the enabled run below quantifies what it costs when on). ---
  WranglerConfig config;
  config.obs.enabled = false;
  WranglingSession session(config);
  Status s = session.SetTargetSchema(PaperTargetSchema());
  for (const Relation& src : sources) {
    if (s.ok()) s = session.AddSource(src);
  }
  OrchestrationStats boot_stats;
  double boot_ms = TimeMs([&] {
    if (s.ok()) s = session.Run(&boot_stats);
  });
  if (!s.ok()) {
    std::fprintf(stderr, "vada bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ScenarioEvaluation boot_eval = EvaluateScenario(*session.result(), sc.truth);

  // --- Incremental input: the data context arrives later. Dynamic
  // orchestration re-runs only the newly enabled/invalidated steps. ---
  OrchestrationStats incr_stats;
  double incr_ms = 0.0;
  {
    s = session.AddDataContext(sc.address, RelationRole::kReference,
                               {{"street", "street"},
                                {"postcode", "postcode"}});
    incr_ms = TimeMs([&] {
      if (s.ok()) s = session.Run(&incr_stats);
    });
    if (!s.ok()) {
      std::fprintf(stderr, "vada incremental failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  ScenarioEvaluation incr_eval = EvaluateScenario(*session.result(), sc.truth);

  // An ETL deployment handling the same late-arriving reference data would
  // re-run the full pipeline (after someone reconfigures it); charge it a
  // second full pass as the best case.
  double etl_rerun_ms = TimeMs([&] {
    EtlReport ignored;
    etl.Run(PaperTargetSchema(), sources, &ignored);
  });

  // --- Same bootstrap with observability ON: metrics + spans overhead. ---
  WranglingSession obs_session;  // default config: obs enabled
  OrchestrationStats obs_stats;
  s = obs_session.SetTargetSchema(PaperTargetSchema());
  for (const Relation& src : sources) {
    if (s.ok()) s = obs_session.AddSource(src);
  }
  double obs_boot_ms = TimeMs([&] {
    if (s.ok()) s = obs_session.Run(&obs_stats);
  });
  if (!s.ok()) {
    std::fprintf(stderr, "instrumented bootstrap failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  SessionMetricsReport metrics_report = obs_session.MetricsReport();

  // Dependency checks as "evaluated +memo hits" (DESIGN.md §5l).
  auto checks = [](const OrchestrationStats& st) {
    return std::to_string(st.dependency_checks) + " +" +
           std::to_string(st.dependency_memo_hits) + " memo";
  };
  Table table({"system / phase", "component runs", "dep checks", "wall ms",
               "rows", "overall quality"});
  table.AddRow({"ETL (single pass)", std::to_string(etl_report.component_runs),
                "0", Fmt(etl_ms, 1), std::to_string(etl_eval.rows),
                Fmt(etl_eval.overall)});
  table.AddRow({"VADA bootstrap", std::to_string(boot_stats.steps),
                checks(boot_stats), Fmt(boot_ms, 1),
                std::to_string(boot_eval.rows), Fmt(boot_eval.overall)});
  table.AddRow({"VADA +data context (incremental)",
                std::to_string(incr_stats.steps), checks(incr_stats),
                Fmt(incr_ms, 1), std::to_string(incr_eval.rows),
                Fmt(incr_eval.overall)});
  table.AddRow({"ETL re-run (same new input)",
                std::to_string(etl_report.component_runs), "0",
                Fmt(etl_rerun_ms, 1), std::to_string(etl_eval.rows),
                Fmt(etl_eval.overall) + " (no repair/selection)"});
  table.AddRow({"VADA bootstrap (obs enabled)",
                std::to_string(obs_stats.steps),
                checks(obs_stats), Fmt(obs_boot_ms, 1), "-",
                "overhead " +
                    Fmt(boot_ms > 0 ? (obs_boot_ms / boot_ms - 1.0) * 100 : 0,
                        1) +
                    "%"});
  table.Print();

  std::printf(
      "\nobservability: instrumented bootstrap recorded %zu metric "
      "samples;\n  vada_datalog_rules_fired=%.0f "
      "vada_orchestrator_steps=%.0f\n",
      metrics_report.snapshot.samples.size(),
      metrics_report.snapshot.Value("vada_datalog_rules_fired"),
      metrics_report.snapshot.Value("vada_orchestrator_steps"));

  BenchReport report("orchestration");
  report.Add("etl_ms", etl_ms);
  report.Add("vada_bootstrap_ms", boot_ms);
  report.Add("vada_incremental_ms", incr_ms);
  report.Add("etl_rerun_ms", etl_rerun_ms);
  report.Add("vada_bootstrap_obs_enabled_ms", obs_boot_ms);
  report.AddNsPerOp("bootstrap_step_ns", boot_ms, boot_stats.steps);
  report.AddNsPerOp("dependency_check_ns", boot_ms,
                    boot_stats.dependency_checks);
  report.Add("bootstrap_steps", static_cast<double>(boot_stats.steps));
  report.Add("bootstrap_dep_checks",
             static_cast<double>(boot_stats.dependency_checks));
  report.Add("bootstrap_dep_memo_hits",
             static_cast<double>(boot_stats.dependency_memo_hits));
  report.Add("result_rows", static_cast<double>(incr_eval.rows));
  report.Add("overall_quality", incr_eval.overall);
  report.Add("datalog_rules_fired",
             metrics_report.snapshot.Value("vada_datalog_rules_fired"));
  report.Add("datalog_join_probes",
             metrics_report.snapshot.Value("vada_datalog_join_probes"));
  report.Add("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
  report.WriteJson();

  std::printf(
      "\nnotes:\n"
      "  * dependency checks are the overhead of declarative dynamic\n"
      "    orchestration (Datalog queries over control relations);\n"
      "  * the ETL pipeline cannot exploit the reference data at all —\n"
      "    no instance matching, no CFD repair, no quality-driven\n"
      "    selection — so its quality is frozen at the single-pass level\n"
      "    while VADA's improves with each input (E4/E5/E6).\n");
  return 0;
}
