// EXPLAIN / EXPLAIN ANALYZE (DESIGN.md §5g): plan shape, the
// reconciliation invariant between per-literal actuals and the
// evaluator's join-work counters, parallel bit-identity of the
// attribution, and the WranglingSession::ExplainProgram facade.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/explain.h"
#include "datalog/parser.h"
#include "kb/relation.h"
#include "kb/schema.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "wrangler/session.h"

namespace vada::datalog {
namespace {

Relation MakeEdges(const std::string& name, int n) {
  Relation edges(Schema::Untyped(name, {"src", "dst"}));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        edges.Insert(Tuple{Value::Int(i), Value::Int((i + 1) % n)}).ok());
  }
  return edges;
}

Evaluator MakeEvaluator(const std::string& source,
                        EvalOptions options = EvalOptions()) {
  Result<Program> program = Parser::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return Evaluator(std::move(program).value(), std::move(options));
}

const std::string kTransitiveClosure =
    "tc(X,Y) :- edge(X,Y).\n"
    "tc(X,Z) :- edge(X,Y), tc(Y,Z).\n";

TEST(ExplainTest, PlainExplainShowsPlanWithoutEvaluating) {
  Database db;
  db.LoadRelation(MakeEdges("edge", 64));
  Evaluator eval = MakeEvaluator(kTransitiveClosure);
  ASSERT_TRUE(eval.Prepare().ok());

  PlanExplain plan;
  ASSERT_TRUE(eval.Explain(&db, &plan).ok());

  EXPECT_FALSE(plan.analyzed);
  ASSERT_EQ(plan.strata.size(), 1u);
  EXPECT_EQ(plan.strata[0].predicates, std::vector<std::string>{"tc"});
  ASSERT_EQ(plan.strata[0].rules.size(), 2u);

  // The recursive rule: the planner starts from tc (estimated empty
  // before the run) and joins into edge with its first column bound.
  const RuleExplain& recursive = plan.strata[0].rules[1];
  ASSERT_EQ(recursive.literals.size(), 2u);
  EXPECT_EQ(recursive.literals[0].body_index, 1u);
  EXPECT_EQ(recursive.literals[0].kind, "atom");
  EXPECT_EQ(recursive.literals[0].access, "scan");
  const LiteralExplain& probe = recursive.literals[1];
  EXPECT_EQ(probe.body_index, 0u);
  EXPECT_EQ(probe.bound_positions, std::vector<size_t>{1});  // Y is col 1
  EXPECT_EQ(probe.access, "index");  // 64 facts >= min_index_size
  // The bound estimate must beat a full scan of the 64 edges.
  EXPECT_GT(probe.estimated_cost, 0u);
  EXPECT_LT(probe.estimated_cost, 64u);

  // Nothing ran: no facts were derived, no actuals were recorded.
  EXPECT_EQ(db.FactCount("tc"), 0u);
  LiteralRuntime totals = plan.Totals();
  EXPECT_EQ(totals.scan_probes, 0u);
  EXPECT_EQ(totals.index_probes + totals.index_candidates, 0u);

  EXPECT_NE(plan.ToText().find("plan\n"), std::string::npos);
  EXPECT_NE(plan.ToText().find("access=index"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::JsonLint(plan.ToJson(), &error)) << error;
}

// The reconciliation invariant: EXPLAIN ANALYZE's per-literal actuals,
// summed over the plan, equal the run's EvalStats join counters AND the
// vada_datalog_* counters a metrics registry records — same sites, no
// double counting.
TEST(ExplainTest, AnalyzeTotalsReconcileWithEvalStatsAndMetrics) {
  obs::MetricsRegistry registry;
  EvalOptions options;
  options.metrics = &registry;

  Database db;
  db.LoadRelation(MakeEdges("edge", 64));
  Evaluator eval = MakeEvaluator(kTransitiveClosure, options);
  ASSERT_TRUE(eval.Prepare().ok());

  PlanExplain plan;
  EvalStats stats;
  ASSERT_TRUE(eval.Explain(&db, &plan, /*analyze=*/true, &stats).ok());

  EXPECT_TRUE(plan.analyzed);
  EXPECT_GT(stats.facts_derived, 0u);
  EXPECT_EQ(db.FactCount("tc"), 64u * 64u);

  const LiteralRuntime totals = plan.Totals();
  EXPECT_GT(totals.scan_probes + totals.index_probes, 0u);
  EXPECT_EQ(totals.scan_probes, stats.join_probes);
  EXPECT_EQ(totals.index_probes, stats.index_probes);
  EXPECT_EQ(totals.index_candidates, stats.index_candidates);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_datalog_join_probes"),
                   static_cast<double>(totals.scan_probes));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_datalog_index_probes_total"),
                   static_cast<double>(totals.index_probes));
  EXPECT_DOUBLE_EQ(snapshot.Value("vada_datalog_index_candidates_total"),
                   static_cast<double>(totals.index_candidates));

  // Rule-level attribution: applications and derived facts add up too.
  uint64_t applications = 0;
  uint64_t derived = 0;
  for (const StratumExplain& stratum : plan.strata) {
    for (const RuleExplain& rule : stratum.rules) {
      applications += rule.applications;
      derived += rule.facts_derived;
    }
  }
  EXPECT_EQ(applications, stats.rule_applications);
  EXPECT_EQ(derived, stats.facts_derived);
}

TEST(ExplainTest, NegationAndComparisonLiteralsAreAttributed) {
  Database db;
  db.LoadRelation(MakeEdges("edge", 8));
  Relation blocked(Schema::Untyped("blocked", {"src"}));
  ASSERT_TRUE(blocked.Insert(Tuple{Value::Int(3)}).ok());
  db.LoadRelation(blocked);

  Evaluator eval = MakeEvaluator(
      "ok(X,Y) :- edge(X,Y), not blocked(X), X < 6.\n");
  ASSERT_TRUE(eval.Prepare().ok());
  PlanExplain plan;
  ASSERT_TRUE(eval.Explain(&db, &plan, /*analyze=*/true).ok());

  ASSERT_EQ(plan.strata.size(), 1u);
  ASSERT_EQ(plan.strata[0].rules.size(), 1u);
  const RuleExplain& rule = plan.strata[0].rules[0];
  ASSERT_EQ(rule.literals.size(), 3u);
  bool saw_check = false;
  bool saw_filter = false;
  for (const LiteralExplain& lit : rule.literals) {
    if (lit.kind == "negation") {
      EXPECT_EQ(lit.access, "check");
      saw_check = true;
    }
    if (lit.kind == "comparison") {
      EXPECT_EQ(lit.access, "filter");
      saw_filter = true;
    }
  }
  EXPECT_TRUE(saw_check);
  EXPECT_TRUE(saw_filter);
  // not blocked(3) and 6,7 < 6 failing: 8 edges minus 3 survivors... the
  // exact row count is the evaluator's business; the plan must agree.
  EXPECT_EQ(rule.facts_derived, db.FactCount("ok"));
}

// ------------------------------------------------------- session facade

TEST(SessionExplainProgramTest, ExplainsAgainstKbWithoutMutatingIt) {
  WranglingSession session;
  ASSERT_TRUE(session.AddSource(MakeEdges("edge", 64)).ok());
  const uint64_t version_before = session.kb().global_version();

  Result<PlanExplain> plan = session.ExplainProgram(kTransitiveClosure);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value().analyzed);
  ASSERT_EQ(plan.value().strata.size(), 1u);

  Result<PlanExplain> analyzed =
      session.ExplainProgram(kTransitiveClosure, /*analyze=*/true);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed.value().analyzed);
  LiteralRuntime totals = analyzed.value().Totals();
  EXPECT_GT(totals.scan_probes + totals.index_probes, 0u);

  // The program ran against a scratch database: the KB saw no writes and
  // holds no tc relation.
  EXPECT_EQ(session.kb().global_version(), version_before);
  EXPECT_FALSE(session.kb().GetRelation("tc").ok());
}

TEST(SessionExplainProgramTest, ParseErrorsPropagate) {
  WranglingSession session;
  Result<PlanExplain> plan = session.ExplainProgram("tc(X :- broken");
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace vada::datalog
