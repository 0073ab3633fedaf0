// Differential fuzz harness for the join planner (DESIGN.md §5f).
//
// Each case generates a random program + database from a seed and
// evaluates it under every planner configuration. The oracle is the
// full-scan, legacy-order path ({indexes = false, reorder = false});
// the indexed and reordered paths must derive the same fact sets, and
// `indexes` alone must reproduce the oracle's row order exactly (index
// buckets keep insertion order).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog_random_program.h"

namespace vada::datalog {
namespace {

/// 25 shards x 20 seeds = 500 differential cases.
class JoinPlannerDifferential : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, JoinPlannerDifferential,
                         ::testing::Range(0, 25));

constexpr int kSeedsPerShard = 20;

TEST_P(JoinPlannerDifferential, AllPlannerConfigsAgreeOnRandomPrograms) {
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok()) << program.status().message();

    // Oracle: full scans, legacy literal order.
    EvalOptions oracle;
    oracle.planner = PlannerOptions{.indexes = false, .reorder = false};
    EvalOutput expected = Evaluate(program.value(), edb, oracle);
    auto expected_sorted = expected.SortedFacts();

    struct Config {
      const char* name;
      PlannerOptions planner;
      bool same_row_order;  // must match the oracle row-for-row
    };
    // min_index_size 1 forces composite indexes onto even the tiny
    // relations this generator makes; the default-32 config covers the
    // single-column fallback path instead.
    const Config configs[] = {
        {"indexes", {.indexes = true, .reorder = false, .min_index_size = 1},
         true},
        {"indexes-default-gate",
         {.indexes = true, .reorder = false, .min_index_size = 32}, true},
        {"reorder", {.indexes = false, .reorder = true}, false},
        {"indexes+reorder",
         {.indexes = true, .reorder = true, .min_index_size = 1}, false},
    };
    for (const Config& config : configs) {
      SCOPED_TRACE(config.name);
      EvalOptions opts;
      opts.planner = config.planner;
      EvalOutput sequential = Evaluate(program.value(), edb, opts);
      // Same derived fact set as the oracle, always.
      EXPECT_EQ(sequential.SortedFacts(), expected_sorted);
      EXPECT_EQ(sequential.stats.facts_derived, expected.stats.facts_derived);
      if (config.same_row_order) {
        // `indexes` alone never permutes rows: buckets keep insertion
        // order, so probing enumerates exactly what a scan would.
        EXPECT_EQ(sequential.facts, expected.facts);
      }
    }

    // The naive-fixpoint oracle agrees on the fact set too.
    EvalOptions naive = oracle;
    naive.semi_naive = false;
    EXPECT_EQ(Evaluate(program.value(), edb, naive).SortedFacts(),
              expected_sorted);
  }
}

/// Optimizer differential: with PlannerOptions::optimize on, Query()
/// rewrites the program (constant folding, dead/unreachable-rule
/// elimination, magic sets toward the goal) — but the goal-visible
/// output must stay bit-identical to the unoptimized oracle, for every
/// derived predicate of every random program. 25 shards x 20 seeds =
/// 500 programs x 9 goals.
class OptimizerDifferential : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, OptimizerDifferential,
                         ::testing::Range(0, 25));

TEST_P(OptimizerDifferential, GoalVisibleOutputIsBitIdentical) {
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok()) << program.status().message();

    for (const std::string& goal : RandomProgramGoals()) {
      SCOPED_TRACE("goal=" + goal);
      Database oracle_db = edb;
      Result<std::vector<Tuple>> expected =
          Query(program.value(), &oracle_db, goal, EvalOptions());
      ASSERT_TRUE(expected.ok()) << expected.status().message();

      EvalOptions optimized;
      optimized.planner.optimize = true;
      Database opt_db = edb;
      Result<std::vector<Tuple>> actual =
          Query(program.value(), &opt_db, goal, optimized);
      ASSERT_TRUE(actual.ok()) << actual.status().message();
      EXPECT_EQ(actual.value(), expected.value());
    }
  }
}

/// Indexed evaluation must replace scan work, not duplicate it: on a
/// join wide enough to clear the index gate, total candidate work drops
/// and the counters attribute it to the right strategy.
TEST(JoinPlannerDifferential, IndexedRunDoesLessJoinWork) {
  Rng rng(7);
  Database edb;
  for (int i = 0; i < 400; ++i) {
    edb.Insert("big", Tuple({Value::Int(rng.UniformInt(0, 40)),
                             Value::Int(rng.UniformInt(0, 40))}));
  }
  Result<Program> program =
      Parser::Parse("j(X, Z) :- big(X, Y), big(Y, Z).");
  ASSERT_TRUE(program.ok());

  EvalOptions oracle;
  oracle.planner = PlannerOptions{.indexes = false, .reorder = false};
  EvalOutput scan = Evaluate(program.value(), edb, oracle);
  EXPECT_EQ(scan.stats.index_probes, 0u);
  EXPECT_EQ(scan.stats.index_builds, 0u);
  EXPECT_GT(scan.stats.join_probes, 0u);

  EvalOutput indexed = Evaluate(program.value(), edb, EvalOptions());
  EXPECT_EQ(indexed.SortedFacts(), scan.SortedFacts());
  EXPECT_GT(indexed.stats.index_probes, 0u);
  EXPECT_GT(indexed.stats.index_builds, 0u);
  size_t indexed_work = indexed.stats.join_probes +
                        indexed.stats.index_probes +
                        indexed.stats.index_candidates;
  EXPECT_LT(indexed_work, scan.stats.join_probes);
}

}  // namespace
}  // namespace vada::datalog
