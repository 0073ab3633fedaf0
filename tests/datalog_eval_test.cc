#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"

namespace vada::datalog {
namespace {

Program MustParse(const std::string& src) {
  Result<Program> p = Parser::Parse(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\nsource:\n" << src;
  return std::move(p).value();
}

std::vector<Tuple> MustQuery(const std::string& src, Database* db,
                             const std::string& goal,
                             bool semi_naive = true) {
  EvalOptions opts;
  opts.semi_naive = semi_naive;
  Result<std::vector<Tuple>> r = Query(MustParse(src), db, goal, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Both evaluation modes, as a parameterized suite.
class EvalModeTest : public ::testing::TestWithParam<bool> {
 protected:
  bool semi_naive() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Modes, EvalModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "SemiNaive" : "Naive";
                         });

TEST_P(EvalModeTest, FactsOnly) {
  Database db;
  auto result = MustQuery("p(1). p(2).", &db, "p", semi_naive());
  EXPECT_EQ(result.size(), 2u);
}

TEST_P(EvalModeTest, SimpleJoin) {
  Database db;
  db.Insert("q", Tuple({Value::Int(1), Value::Int(2)}));
  db.Insert("q", Tuple({Value::Int(2), Value::Int(3)}));
  db.Insert("r", Tuple({Value::Int(2)}));
  auto result =
      MustQuery("p(X, Y) :- q(X, Y), r(Y).", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], Tuple({Value::Int(1), Value::Int(2)}));
}

TEST_P(EvalModeTest, TransitiveClosure) {
  Database db;
  for (int i = 1; i < 6; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  auto result = MustQuery(
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", &db, "tc",
      semi_naive());
  EXPECT_EQ(result.size(), 15u);  // 5+4+3+2+1
  EXPECT_TRUE(db.Contains("tc", Tuple({Value::Int(1), Value::Int(6)})));
}

TEST_P(EvalModeTest, TransitiveClosureWithCycle) {
  Database db;
  db.Insert("edge", Tuple({Value::Int(1), Value::Int(2)}));
  db.Insert("edge", Tuple({Value::Int(2), Value::Int(1)}));
  auto result = MustQuery(
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", &db, "tc",
      semi_naive());
  EXPECT_EQ(result.size(), 4u);  // (1,1) (1,2) (2,1) (2,2)
}

TEST_P(EvalModeTest, StratifiedNegation) {
  Database db;
  for (int i = 1; i <= 4; ++i) db.Insert("node", Tuple({Value::Int(i)}));
  db.Insert("edge", Tuple({Value::Int(1), Value::Int(2)}));
  db.Insert("src", Tuple({Value::Int(1)}));
  auto result = MustQuery(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreach(X) :- node(X), not reach(X).\n",
      &db, "unreach", semi_naive());
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], Tuple({Value::Int(3)}));
  EXPECT_EQ(result[1], Tuple({Value::Int(4)}));
}

TEST_P(EvalModeTest, ComparisonFilters) {
  Database db;
  for (int i = 1; i <= 5; ++i) db.Insert("n", Tuple({Value::Int(i)}));
  auto result =
      MustQuery("big(X) :- n(X), X >= 4.", &db, "big", semi_naive());
  EXPECT_EQ(result.size(), 2u);
}

TEST_P(EvalModeTest, NumericCoercionInComparisons) {
  Database db;
  db.Insert("n", Tuple({Value::Double(2.5)}));
  db.Insert("n", Tuple({Value::Int(3)}));
  auto result = MustQuery("big(X) :- n(X), X > 2.9.", &db, "big", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::Int(3));
}

TEST_P(EvalModeTest, ArithmeticAssignment) {
  Database db;
  db.Insert("q", Tuple({Value::Int(3), Value::Int(4)}));
  auto result =
      MustQuery("p(S) :- q(A, B), S = A + B.", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::Int(7));
}

TEST_P(EvalModeTest, DivisionYieldsDouble) {
  Database db;
  db.Insert("q", Tuple({Value::Int(7), Value::Int(2)}));
  auto result =
      MustQuery("p(S) :- q(A, B), S = A / B.", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::Double(3.5));
}

TEST_P(EvalModeTest, DivisionByZeroFailsLiteral) {
  Database db;
  db.Insert("q", Tuple({Value::Int(7), Value::Int(0)}));
  auto result =
      MustQuery("p(S) :- q(A, B), S = A / B.", &db, "p", semi_naive());
  EXPECT_TRUE(result.empty());
}

TEST_P(EvalModeTest, AssignmentUnifiesWhenAlreadyBound) {
  Database db;
  db.Insert("q", Tuple({Value::Int(3), Value::Int(3)}));
  db.Insert("q", Tuple({Value::Int(3), Value::Int(4)}));
  // Y must equal X: only the (3,3) row survives.
  auto result = MustQuery("p(X, Y) :- q(X, Y), Y = X.", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
}

TEST_P(EvalModeTest, ConstantInAtomFilters) {
  Database db;
  db.Insert("q", Tuple({Value::String("a"), Value::Int(1)}));
  db.Insert("q", Tuple({Value::String("b"), Value::Int(2)}));
  auto result =
      MustQuery("p(X) :- q(\"a\", X).", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::Int(1));
}

TEST_P(EvalModeTest, RepeatedVariableInAtom) {
  Database db;
  db.Insert("q", Tuple({Value::Int(1), Value::Int(1)}));
  db.Insert("q", Tuple({Value::Int(1), Value::Int(2)}));
  auto result = MustQuery("p(X) :- q(X, X).", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::Int(1));
}

TEST_P(EvalModeTest, SameGenerationNonlinearRecursion) {
  // Nonlinear recursion: sg(X,Y) :- up(X,A), sg(A,B), down(B,Y).
  Database db;
  db.Insert("up", Tuple({Value::Int(1), Value::Int(3)}));
  db.Insert("up", Tuple({Value::Int(2), Value::Int(3)}));
  db.Insert("flat", Tuple({Value::Int(3), Value::Int(3)}));
  db.Insert("down", Tuple({Value::Int(3), Value::Int(1)}));
  db.Insert("down", Tuple({Value::Int(3), Value::Int(2)}));
  auto result = MustQuery(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).\n",
      &db, "sg", semi_naive());
  EXPECT_TRUE(db.Contains("sg", Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_TRUE(db.Contains("sg", Tuple({Value::Int(1), Value::Int(1)})));
  EXPECT_EQ(result.size(), 5u);  // (3,3) (1,1) (1,2) (2,1) (2,2)
}

TEST_P(EvalModeTest, StringEqualityAndInequality) {
  Database db;
  db.Insert("q", Tuple({Value::String("a")}));
  db.Insert("q", Tuple({Value::String("b")}));
  auto result =
      MustQuery("p(X) :- q(X), X != \"a\".", &db, "p", semi_naive());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].at(0), Value::String("b"));
}

TEST_P(EvalModeTest, CrossTypeInequalityIsTrue) {
  Database db;
  db.Insert("q", Tuple({Value::Int(1), Value::String("1")}));
  auto result =
      MustQuery("p(X, Y) :- q(X, Y), X != Y.", &db, "p", semi_naive());
  EXPECT_EQ(result.size(), 1u);
}

TEST_P(EvalModeTest, ZeroArityPredicates) {
  Database db;
  db.Insert("q", Tuple({Value::Int(1)}));
  auto result = MustQuery("flag() :- q(X), X > 0.", &db, "flag", semi_naive());
  EXPECT_EQ(result.size(), 1u);
}

// Arithmetic invents values, so this passes lint yet never reaches a
// fixpoint: the iteration cap is a resource limit, not an engine bug.
TEST_P(EvalModeTest, ArithmeticRecursionExhaustsMaxIterations) {
  EvalOptions opts;
  opts.semi_naive = semi_naive();
  opts.max_iterations = 20;
  Evaluator eval(MustParse("n(0). n(Y) :- n(X), Y = X + 1."), opts);
  ASSERT_TRUE(eval.Prepare().ok());
  Database db;
  Status s = eval.Run(&db);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
}

TEST(EvalTest, StatsArePopulated) {
  Database db;
  for (int i = 1; i < 20; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Program p = MustParse(
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).");
  Evaluator eval(p);
  ASSERT_TRUE(eval.Prepare().ok());
  EvalStats stats;
  ASSERT_TRUE(eval.Run(&db, &stats).ok());
  EXPECT_GT(stats.iterations, 1u);
  EXPECT_EQ(stats.facts_derived, 19u * 20u / 2u);
  EXPECT_GT(stats.rule_applications, 0u);
}

TEST(EvalTest, RunWithoutPrepareFails) {
  Database db;
  Program p = MustParse("p(1).");
  Evaluator eval(p);
  EXPECT_EQ(eval.Run(&db).code(), StatusCode::kFailedPrecondition);
}

TEST(EvalTest, SemiNaiveBeatsNaiveOnRuleApplications) {
  auto run = [](bool semi_naive) {
    Database db;
    for (int i = 1; i < 60; ++i) {
      db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
    }
    Program p = MustParse(
        "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).");
    EvalOptions opts;
    opts.semi_naive = semi_naive;
    Evaluator eval(p, opts);
    EXPECT_TRUE(eval.Prepare().ok());
    EvalStats stats;
    EXPECT_TRUE(eval.Run(&db, &stats).ok());
    EXPECT_EQ(db.FactCount("tc"), 59u * 60u / 2u);
    return stats;
  };
  EvalStats semi = run(true);
  EvalStats naive = run(false);
  EXPECT_EQ(semi.facts_derived, naive.facts_derived);
  // Naive re-derives every fact each round; semi-naive must derive fewer
  // duplicate facts. Compare rounds as a cheap proxy: both need the same
  // number of rounds, but naive scans everything each time. The stronger
  // guarantee tested here: results identical (above) and semi-naive
  // completes (fixpoint) without exceeding naive's iteration count.
  EXPECT_LE(semi.iterations, naive.iterations + 1);
}

TEST(EvalTest, KnowledgeBaseAdapter) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("edge", {"from", "to"})).ok());
  ASSERT_TRUE(kb.Assert("edge", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(kb.Assert("edge", {Value::Int(2), Value::Int(3)}).ok());
  Result<std::vector<Tuple>> result = QueryKnowledgeBase(
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", kb, "tc");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().size(), 3u);
}

TEST(EvalTest, KbAdapterParseErrorSurfaces) {
  KnowledgeBase kb;
  Result<std::vector<Tuple>> result = QueryKnowledgeBase("p(X :-", kb, "p");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace vada::datalog
