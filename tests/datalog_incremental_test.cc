// Unit tests for the differential-maintenance building blocks
// (DESIGN.md §5k): DeltaLog answerability and netting, the KB mutator
// hooks that feed it, Evaluator::RunIncrement's monotone continuation,
// Evaluator::Sweep (the counting-sweep entry point), and the
// DifferentialEvaluator's strategy selection / EXPLAIN surface /
// join-work advantage. The incremental-vs-full equivalence itself is
// fuzzed at scale in datalog_differential_test.cc.
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/database.h"
#include "datalog/differential.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "kb/delta_log.h"
#include "kb/knowledge_base.h"

namespace vada::datalog {
namespace {

Tuple Pair(int a, int b) { return Tuple({Value::Int(a), Value::Int(b)}); }

// ---------------------------------------------------------------------
// DeltaLog semantics
// ---------------------------------------------------------------------

TEST(DeltaLogTest, SinceNetsInsertRetractHistory) {
  DeltaLog log;
  log.OnInsert("r", Pair(1, 1), 1);
  log.OnInsert("r", Pair(2, 2), 2);
  log.OnRetract("r", Pair(1, 1), 3);  // nets out the insert at v1
  log.OnRetract("r", Pair(0, 0), 4);  // net retract

  std::optional<DeltaLog::RelationDelta> d = log.Since("r", 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(2, 2)}));
  EXPECT_EQ(d->retracts, std::vector<Tuple>({Pair(0, 0)}));

  // Watermarks are exclusive: since v2 the v2 insert is old news.
  d = log.Since("r", 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->inserts.empty());
  EXPECT_EQ(d->retracts.size(), 2u);

  // A relation with no history has an (answerable) empty delta.
  d = log.Since("other", 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->inserts.empty() && d->retracts.empty());
}

TEST(DeltaLogTest, FloorResetAndEvictionBreakAnswerability) {
  DeltaLog log(/*max_records=*/4);
  log.SetFloor(10);
  EXPECT_FALSE(log.Since("r", 9).has_value());  // pre-attach history
  EXPECT_TRUE(log.Since("r", 10).has_value());

  log.OnInsert("r", Pair(1, 1), 11);
  log.OnReset("r", 12);  // DropRelation: history break
  EXPECT_FALSE(log.Since("r", 10).has_value());
  // At or past the reset the history is whole again.
  log.OnInsert("r", Pair(2, 2), 13);
  std::optional<DeltaLog::RelationDelta> d = log.Since("r", 12);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(2, 2)}));

  // Capacity eviction drops the globally oldest records and poisons
  // only the evicted relation's early watermarks.
  log.OnInsert("s", Pair(1, 1), 14);
  log.OnInsert("s", Pair(2, 2), 15);
  log.OnInsert("s", Pair(3, 3), 16);
  log.OnInsert("s", Pair(4, 4), 17);  // over capacity: evicts r@12
  EXPECT_LE(log.size(), 4u);
  EXPECT_FALSE(log.Since("r", 12).has_value());
  d = log.Since("s", 14);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts.size(), 3u);
}

TEST(DeltaLogTest, RewindDropsRecordsAboveVersionAndBumpsEpoch) {
  DeltaLog log;
  log.OnInsert("r", Pair(1, 1), 1);
  log.OnInsert("r", Pair(2, 2), 2);
  log.OnInsert("s", Pair(3, 3), 3);
  const uint64_t epoch = log.rewind_epoch();
  log.OnRewind(1);
  EXPECT_EQ(log.rewind_epoch(), epoch + 1);
  std::optional<DeltaLog::RelationDelta> d = log.Since("r", 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(1, 1)}));
  d = log.Since("s", 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->inserts.empty());
}

// Every KB mutator must log its effective row changes so Since() can
// drive incremental re-evaluation.
TEST(DeltaLogTest, KnowledgeBaseMutatorsFeedTheLog) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"x", "y"})).ok());
  ASSERT_TRUE(kb.Insert("r", Pair(0, 0)).ok());  // pre-attach: not logged
  DeltaLog log;
  kb.AttachDeltaLog(&log);
  const uint64_t v0 = kb.global_version();
  EXPECT_FALSE(log.Since("r", v0 - 1).has_value());  // below the floor

  ASSERT_TRUE(kb.Insert("r", Pair(1, 1)).ok());
  ASSERT_TRUE(kb.Insert("r", Pair(1, 1)).ok());  // duplicate: no delta
  ASSERT_TRUE(kb.Retract("r", Pair(0, 0)).ok());
  std::optional<DeltaLog::RelationDelta> d = log.Since("r", v0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(1, 1)}));
  EXPECT_EQ(d->retracts, std::vector<Tuple>({Pair(0, 0)}));

  // InsertAll logs each genuinely new row once.
  const uint64_t v1 = kb.global_version();
  Relation batch(Schema::Untyped("r", {"x", "y"}));
  ASSERT_TRUE(batch.InsertUnchecked(Pair(1, 1)).ok());  // already present
  ASSERT_TRUE(batch.InsertUnchecked(Pair(2, 2)).ok());
  ASSERT_TRUE(kb.InsertAll(batch).ok());
  d = log.Since("r", v1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(2, 2)}));

  // ReplaceRelation logs the row-level diff, not a history break.
  const uint64_t v2 = kb.global_version();
  Relation replacement(Schema::Untyped("r", {"x", "y"}));
  ASSERT_TRUE(replacement.InsertUnchecked(Pair(2, 2)).ok());
  ASSERT_TRUE(replacement.InsertUnchecked(Pair(3, 3)).ok());
  ASSERT_TRUE(kb.ReplaceRelation(replacement).ok());
  d = log.Since("r", v2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inserts, std::vector<Tuple>({Pair(3, 3)}));
  EXPECT_EQ(d->retracts, std::vector<Tuple>({Pair(1, 1)}));

  // ClearRelation logs exact retracts (still answerable) ...
  const uint64_t v3 = kb.global_version();
  ASSERT_TRUE(kb.ClearRelation("r").ok());
  d = log.Since("r", v3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->retracts.size(), 2u);
  // ... while DropRelation is a history break.
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("gone", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("gone", Tuple({Value::Int(1)})).ok());
  const uint64_t v4 = kb.global_version();
  ASSERT_TRUE(kb.DropRelation("gone").ok());
  EXPECT_FALSE(log.Since("gone", v4).has_value());
}

// ---------------------------------------------------------------------
// Evaluator::RunIncrement
// ---------------------------------------------------------------------

TEST(RunIncrementTest, ContinuesTransitiveClosureFromAnInsertion) {
  Result<Program> program = Parser::Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n");
  ASSERT_TRUE(program.ok());
  Database db;
  for (int i = 0; i < 30; ++i) db.Insert("e", Pair(i, i + 1));

  Evaluator eval(program.value());
  ASSERT_TRUE(eval.Prepare().ok());
  EvalStats full_stats;
  ASSERT_TRUE(eval.Run(&db, &full_stats).ok());

  // Graft a new source node on and continue instead of re-running:
  // tc(100, 15..31) are all genuinely new facts.
  Database delta;
  delta.Insert("e", Pair(100, 15));
  db.Insert("e", Pair(100, 15));
  EvalStats inc_stats;
  Database added;
  ASSERT_TRUE(eval.RunIncrement(&db, delta, &inc_stats, &added).ok());

  Database scratch;
  for (int i = 0; i < 30; ++i) scratch.Insert("e", Pair(i, i + 1));
  scratch.Insert("e", Pair(100, 15));
  Evaluator oracle(program.value());
  ASSERT_TRUE(oracle.Prepare().ok());
  EvalStats oracle_stats;
  ASSERT_TRUE(oracle.Run(&scratch, &oracle_stats).ok());

  std::vector<Tuple> got = db.facts("tc");
  std::vector<Tuple> want = scratch.facts("tc");
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  // Everything RunIncrement added was genuinely new, and the
  // continuation did less join work than the from-scratch run.
  EXPECT_GT(added.FactCount("tc"), 0u);
  EXPECT_EQ(full_stats.facts_derived + added.FactCount("tc"),
            oracle_stats.facts_derived);
  size_t inc_work = inc_stats.join_probes + inc_stats.index_probes +
                    inc_stats.index_candidates;
  size_t oracle_work = oracle_stats.join_probes + oracle_stats.index_probes +
                       oracle_stats.index_candidates;
  EXPECT_LT(inc_work, oracle_work);
}

TEST(RunIncrementTest, ArithmeticRecursionExhaustsMaxIterations) {
  Result<Program> program = Parser::Parse("n(0). n(Y) :- n(X), Y = X + 1.\n");
  ASSERT_TRUE(program.ok());
  EvalOptions opts;
  opts.max_iterations = 20;
  Evaluator eval(program.value(), opts);
  ASSERT_TRUE(eval.Prepare().ok());
  // The fact n(0) arrives as the insertion the continuation starts from.
  Database db;
  Database delta;
  db.Insert("n", Tuple({Value::Int(0)}));
  delta.Insert("n", Tuple({Value::Int(0)}));
  Status s = eval.RunIncrement(&db, delta);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
}

TEST(RunIncrementTest, RejectsNegationAndAggregates) {
  Database db;
  Database delta;
  {
    Result<Program> p = Parser::Parse(
        "r(X) :- a(X), not b(X).\n");
    ASSERT_TRUE(p.ok());
    Evaluator eval(p.value());
    ASSERT_TRUE(eval.Prepare().ok());
    EXPECT_EQ(eval.RunIncrement(&db, delta).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    Result<Program> p = Parser::Parse("c(X, count<Y>) :- a(X, Y).\n");
    ASSERT_TRUE(p.ok());
    Evaluator eval(p.value());
    ASSERT_TRUE(eval.Prepare().ok());
    EXPECT_EQ(eval.RunIncrement(&db, delta).code(),
              StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------------
// Evaluator::Sweep
// ---------------------------------------------------------------------

TEST(SweepTest, CountsEverySolutionAndRejectsBadArguments) {
  Result<Program> program = Parser::Parse(
      "p(X) :- e(X, Y), e(Y, Z).\n"
      "q(X) :- e(X, Y), not e(Y, X).\n");
  ASSERT_TRUE(program.ok());
  Evaluator eval(program.value());
  ASSERT_TRUE(eval.Prepare().ok());
  Database db;
  for (const Tuple& t : {Pair(1, 2), Pair(2, 3), Pair(2, 4)}) {
    db.Insert("e", t);
  }
  // Repeated heads are emitted, not deduplicated: p(1) has two
  // derivations (1-2-3, 1-2-4).
  std::vector<SymbolId> heads;
  auto collect = [&](const SymbolId* head) { heads.push_back(head[0]); };
  EvalStats stats;
  ASSERT_TRUE(eval.Sweep(0, {&db, &db}, kNoLead, db, &stats, collect).ok());
  const SymbolId one = SymbolTable::Global().Intern(Value::Int(1));
  EXPECT_EQ(heads, std::vector<SymbolId>({one, one}));
  EXPECT_EQ(stats.rule_applications, 1u);

  EXPECT_EQ(eval.Sweep(1, {&db}, kNoLead, db, nullptr, collect).code(),
            StatusCode::kFailedPrecondition);  // negation
  EXPECT_EQ(eval.Sweep(2, {&db}, kNoLead, db, nullptr, collect).code(),
            StatusCode::kInvalidArgument);  // no such rule
  EXPECT_EQ(eval.Sweep(0, {&db}, kNoLead, db, nullptr, collect).code(),
            StatusCode::kInvalidArgument);  // one source for two atoms
  EXPECT_EQ(eval.Sweep(0, {&db, nullptr}, kNoLead, db, nullptr, collect)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(eval.Sweep(0, {&db, &db}, 2, db, nullptr, collect).code(),
            StatusCode::kInvalidArgument);  // lead past the last atom
}

// ---------------------------------------------------------------------
// DifferentialEvaluator strategy selection + EXPLAIN
// ---------------------------------------------------------------------

TEST(DifferentialEvaluatorTest, ExplainNamesThePerStratumStrategies) {
  Result<Program> program = Parser::Parse(
      "join(X, Z) :- e(X, Y), f(Y, Z).\n"          // counting
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"           // monotone/recompute
      "lonely(X) :- n(X), not join(X, X).\n"       // recompute (negation)
      "iso(X) :- g(X).\n");                        // untouched: skip
  ASSERT_TRUE(program.ok());
  Database edb;
  for (int i = 0; i < 10; ++i) {
    edb.Insert("e", Pair(i, i + 1));
    edb.Insert("f", Pair(i, i + 1));
    edb.Insert("n", Tuple({Value::Int(i)}));
    edb.Insert("g", Tuple({Value::Int(i)}));
  }
  DifferentialEvaluator diff(program.value());
  ASSERT_TRUE(diff.Prepare().ok());
  ASSERT_TRUE(diff.Initialize(edb).ok());
  EXPECT_EQ(diff.last_plan(), "full plan: initialize");

  RelationDelta insert_only;
  insert_only["e"].inserts.push_back(Pair(3, 7));
  ASSERT_TRUE(diff.ApplyDelta(insert_only).ok());
  EXPECT_NE(diff.last_plan().find("{join}=counting"), std::string::npos)
      << diff.last_plan();
  EXPECT_NE(diff.last_plan().find("{tc}=monotone"), std::string::npos)
      << diff.last_plan();
  EXPECT_NE(diff.last_plan().find("{lonely}=recompute"), std::string::npos)
      << diff.last_plan();
  EXPECT_NE(diff.last_plan().find("{iso}=skip"), std::string::npos)
      << diff.last_plan();

  // Retracts push recursive strata from monotone to recompute; the
  // counting stratum handles them in place.
  RelationDelta retract;
  retract["e"].retracts.push_back(Pair(3, 7));
  ASSERT_TRUE(diff.ApplyDelta(retract).ok());
  EXPECT_NE(diff.last_plan().find("{join}=counting"), std::string::npos)
      << diff.last_plan();
  EXPECT_NE(diff.last_plan().find("{tc}=recompute"), std::string::npos)
      << diff.last_plan();

  // A batch past max_delta_fraction falls back to one full run.
  RelationDelta burst;
  for (int i = 0; i < 200; ++i) burst["e"].inserts.push_back(Pair(100 + i, i));
  ASSERT_TRUE(diff.ApplyDelta(burst).ok());
  EXPECT_NE(diff.last_plan().find("full plan: fallback"), std::string::npos)
      << diff.last_plan();
  EXPECT_EQ(diff.lifetime_stats().full_fallbacks, 1u);

  // An empty batch is a no-op, not a maintenance round.
  ASSERT_TRUE(diff.ApplyDelta({}).ok());
  EXPECT_EQ(diff.last_plan(), "delta plan: no-op");
}

TEST(DifferentialEvaluatorTest, SmallDeltaDoesFarLessJoinWorkThanFullRun) {
  // Mapping-shaped join over a few thousand rows — the paper's
  // pay-as-you-go scenario: one feedback fact should not cost a
  // re-evaluation of the whole join.
  Result<Program> program = Parser::Parse(
      "out(X, Z) :- left(X, Y), right(Y, Z).\n");
  ASSERT_TRUE(program.ok());
  Rng rng(42);
  Database edb;
  for (int i = 0; i < 2000; ++i) {
    edb.Insert("left", Pair(static_cast<int>(rng.UniformInt(0, 500)),
                            static_cast<int>(rng.UniformInt(0, 500))));
    edb.Insert("right", Pair(static_cast<int>(rng.UniformInt(0, 500)),
                             static_cast<int>(rng.UniformInt(0, 500))));
  }
  DifferentialOptions opts;
  opts.max_delta_fraction = 1e9;
  DifferentialEvaluator diff(program.value(), opts);
  ASSERT_TRUE(diff.Prepare().ok());
  DeltaStats init;
  ASSERT_TRUE(diff.Initialize(edb, &init).ok());
  const size_t full_work = init.eval.join_probes + init.eval.index_probes +
                           init.eval.index_candidates;

  DeltaStats apply;
  RelationDelta one;
  one["left"].inserts.push_back(Pair(1000, 17));
  ASSERT_TRUE(diff.ApplyDelta(one, &apply).ok());
  const size_t delta_work = apply.eval.join_probes + apply.eval.index_probes +
                            apply.eval.index_candidates;
  // The unit-level floor; bench_incremental gates the full 10x stream.
  EXPECT_LT(delta_work * 10, full_work)
      << "delta=" << delta_work << " full=" << full_work;
}

std::vector<Tuple> SortedFacts(const Database& db, const std::string& pred) {
  std::vector<Tuple> out = db.facts(pred);
  std::sort(out.begin(), out.end());
  return out;
}

// A counting sweep over a self-join reads the same predicate twice. The
// occurrences left of the delta'd one must see the updated store and
// those right of it the pre-batch snapshot; reading the updated store
// everywhere miscounts derivations that pair an inserted row with a
// retracted one.
TEST(DifferentialEvaluatorTest, SelfJoinMixedBatchMatchesFromScratch) {
  Result<Program> program = Parser::Parse("p(X, Z) :- e(X, Y), e(Y, Z).\n");
  ASSERT_TRUE(program.ok());
  // p(1, 3) has one derivation (1-5-3) before and after the batch; the
  // batch adds e(1, 2) and drops e(2, 3), so the path 1-2-3 never
  // exists. Row (8, 9) is inserted and retracted in one go.
  Database edb;
  for (const Tuple& t : {Pair(1, 5), Pair(5, 3), Pair(2, 3), Pair(3, 4),
                         Pair(4, 6), Pair(6, 2)}) {
    edb.Insert("e", t);
  }
  DifferentialOptions opts;
  opts.max_delta_fraction = 1e9;
  DifferentialEvaluator diff(program.value(), opts);
  ASSERT_TRUE(diff.Prepare().ok());
  ASSERT_TRUE(diff.Initialize(edb).ok());

  RelationDelta batch;
  batch["e"].inserts = {Pair(1, 2), Pair(2, 7), Pair(7, 1), Pair(8, 9)};
  batch["e"].retracts = {Pair(2, 3), Pair(4, 6), Pair(8, 9)};
  ASSERT_TRUE(diff.ApplyDelta(batch).ok());
  EXPECT_NE(diff.last_plan().find("{p}=counting"), std::string::npos)
      << diff.last_plan();

  Database scratch;
  for (const Tuple& t : {Pair(1, 5), Pair(5, 3), Pair(3, 4), Pair(6, 2),
                         Pair(1, 2), Pair(2, 7), Pair(7, 1)}) {
    scratch.Insert("e", t);
  }
  Evaluator oracle(program.value());
  ASSERT_TRUE(oracle.Prepare().ok());
  ASSERT_TRUE(oracle.Run(&scratch).ok());
  EXPECT_EQ(SortedFacts(diff.database(), "p"), SortedFacts(scratch, "p"));
  EXPECT_TRUE(diff.database().Contains("p", Pair(1, 3)));
}

// The I1 mapping join (EXPERIMENTS.md I1) in both declared orders: a
// one-row `listing` insert must drive its sweep from the delta row, not
// from a scan of the 401-row `crime` relation the cost-based stratum
// order would put first.
TEST(DifferentialEvaluatorTest, SweepStartsFromTheDeltaInEitherBodyOrder) {
  for (const char* text :
       {"result(N, P, C) :- listing(Id, N, P), crime(N, C).\n",
        "result(N, P, C) :- crime(N, C), listing(Id, N, P).\n"}) {
    SCOPED_TRACE(text);
    Result<Program> program = Parser::Parse(text);
    ASSERT_TRUE(program.ok());
    Rng rng(7);
    Database edb;
    for (int i = 0; i < 2000; ++i) {
      edb.Insert("listing", Tuple({Value::Int(i),
                                   Value::Int(rng.UniformInt(0, 400)),
                                   Value::Int(rng.UniformInt(50, 900))}));
    }
    for (int n = 0; n <= 400; ++n) {
      edb.Insert("crime", Pair(n, static_cast<int>(rng.UniformInt(1, 10))));
    }
    DifferentialEvaluator diff(program.value());
    ASSERT_TRUE(diff.Prepare().ok());
    ASSERT_TRUE(diff.Initialize(edb).ok());

    RelationDelta one;
    one["listing"].inserts.push_back(
        Tuple({Value::Int(1000000), Value::Int(17), Value::Int(500)}));
    DeltaStats apply;
    ASSERT_TRUE(diff.ApplyDelta(one, &apply).ok());
    EXPECT_NE(diff.last_plan().find("{result}=counting"), std::string::npos)
        << diff.last_plan();
    const size_t work = apply.eval.join_probes + apply.eval.index_probes +
                        apply.eval.index_candidates;
    EXPECT_LE(work, 4u);
  }
}

TEST(DifferentialEvaluatorTest, BaseFactsOfIdbPredicatesAreMaintained) {
  Result<Program> program = Parser::Parse(
      "p(X, Y) :- e(X, Y).\n"
      "q(count<X>) :- p(X, Y).\n");
  ASSERT_TRUE(program.ok());
  Database edb;
  edb.Insert("e", Pair(1, 2));
  DifferentialEvaluator diff(program.value());
  ASSERT_TRUE(diff.Prepare().ok());
  ASSERT_TRUE(diff.Initialize(edb).ok());

  // Insert a base fact directly into the IDB predicate: visible, and
  // the aggregate downstream sees it.
  RelationDelta add;
  add["p"].inserts.push_back(Pair(9, 9));
  ASSERT_TRUE(diff.ApplyDelta(add).ok());
  EXPECT_TRUE(diff.database().Contains("p", Pair(9, 9)));
  EXPECT_EQ(diff.database().facts("q"),
            std::vector<Tuple>({Tuple({Value::Int(2)})}));

  // Retracting the base fact removes it (nothing else derives it),
  // but retracting a derived row's base flag must not kill the
  // derivation.
  RelationDelta drop;
  drop["p"].retracts.push_back(Pair(9, 9));
  drop["p"].inserts.push_back(Pair(1, 2));  // redundant base for derived row
  ASSERT_TRUE(diff.ApplyDelta(drop).ok());
  EXPECT_FALSE(diff.database().Contains("p", Pair(9, 9)));
  RelationDelta unbase;
  unbase["p"].retracts.push_back(Pair(1, 2));
  ASSERT_TRUE(diff.ApplyDelta(unbase).ok());
  EXPECT_TRUE(diff.database().Contains("p", Pair(1, 2)))
      << "derived row must survive losing its redundant base flag";
}

}  // namespace
}  // namespace vada::datalog
