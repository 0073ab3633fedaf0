#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"

namespace vada::datalog {
namespace {

Program MustParse(const std::string& src) {
  Result<Program> p = Parser::Parse(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

KnowledgeBase ThreeRelationKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("small", {"x"})).ok());
  EXPECT_TRUE(kb.Assert("small", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("negated", {"x"})).ok());
  EXPECT_TRUE(kb.Assert("negated", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("huge", {"x"})).ok());
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(kb.Assert("huge", {Value::Int(i)}).ok());
  }
  return kb;
}

TEST(KbAdapterTest, LoadReferencedRelationsSkipsUnreferenced) {
  KnowledgeBase kb = ThreeRelationKb();
  Program p = MustParse("out(X) :- small(X), not negated(X).");
  Database db;
  LoadReferencedRelations(p, kb, &db);
  EXPECT_EQ(db.FactCount("small"), 1u);
  EXPECT_EQ(db.FactCount("negated"), 1u);  // negated atoms are referenced
  EXPECT_EQ(db.FactCount("huge"), 0u);     // not mentioned: not loaded
}

TEST(KbAdapterTest, ReferencedRelationsAreUnderivedBodyAtomsInFirstUseOrder) {
  Program p = MustParse(
      "mid(X) :- huge(X), not negated(X).\n"
      "out(X) :- mid(X), small(X), huge(X), X < 3.\n");
  EXPECT_EQ(ReferencedRelations(p),
            (std::vector<std::string>{"huge", "negated", "small"}));
  EXPECT_TRUE(ReferencedRelations(MustParse("fact(1).")).empty());
}

TEST(KbAdapterTest, DerivedPredicatesNotPreloaded) {
  KnowledgeBase kb = ThreeRelationKb();
  // A KB relation that shadows an IDB predicate must not leak in as EDB:
  // derived relations are recomputed, not accumulated (the stale-result
  // bug class fixed in MappingExecutor).
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("out", {"x"})).ok());
  ASSERT_TRUE(kb.Assert("out", {Value::Int(777)}).ok());
  Program p = MustParse(
      "out(X) :- small(X).\n"
      "final(X) :- out(X).\n");
  Database db;
  LoadReferencedRelations(p, kb, &db);
  EXPECT_EQ(db.FactCount("out"), 0u);
  Result<std::vector<Tuple>> result = Query(p, &db, "final");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].at(0), Value::Int(1));  // not 777
}

TEST(KbAdapterTest, QueryMatchesFullLoadSemantics) {
  KnowledgeBase kb = ThreeRelationKb();
  Program p = MustParse("out(X) :- huge(X), X < 5, not negated(X).");

  Database full;
  LoadKnowledgeBase(kb, &full);
  Result<std::vector<Tuple>> via_full = Query(p, &full, "out");
  ASSERT_TRUE(via_full.ok());

  Result<std::vector<Tuple>> via_referenced =
      QueryKnowledgeBase(p, kb, "out");
  ASSERT_TRUE(via_referenced.ok());
  EXPECT_EQ(via_full.value(), via_referenced.value());
  EXPECT_EQ(via_referenced.value().size(), 4u);  // 0,2,3,4 (1 is negated)
}

TEST(EvalEdgeTest, RuleWithOnlyBuiltinsFiresOnce) {
  Database db;
  Program p = MustParse("flag(1) :- 1 < 2.");
  Result<std::vector<Tuple>> result = Query(p, &db, "flag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().size(), 1u);
}

TEST(EvalEdgeTest, RuleWithFalseBuiltinNeverFires) {
  Database db;
  Program p = MustParse("flag(1) :- 2 < 1.");
  Result<std::vector<Tuple>> result = Query(p, &db, "flag");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(EvalEdgeTest, EmptyProgramIsFine) {
  Database db;
  db.Insert("p", Tuple({Value::Int(1)}));
  Program p;
  Result<std::vector<Tuple>> result = Query(p, &db, "p");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 1u);
}

TEST(EvalEdgeTest, UnknownGoalReturnsEmpty) {
  Database db;
  Program p = MustParse("p(1).");
  Result<std::vector<Tuple>> result = Query(p, &db, "no_such_predicate");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(EvalEdgeTest, ConstantsOnlyJoinAcrossArities) {
  Database db;
  db.Insert("wide", Tuple({Value::Int(1), Value::Int(2), Value::Int(3)}));
  // A body atom with wrong arity for its predicate simply never unifies
  // (defensive behaviour; validated programs do not hit this).
  Program p = MustParse("out(X) :- wide(X, Y).");
  Result<std::vector<Tuple>> result = Query(p, &db, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(EvalEdgeTest, DeepStratificationChain) {
  // 12 levels of negation: exercises stratum ordering end to end.
  std::string src = "p0(X) :- base(X).\n";
  for (int i = 1; i <= 12; ++i) {
    src += "p" + std::to_string(i) + "(X) :- base(X), not p" +
           std::to_string(i - 1) + "(X).\n";
  }
  Database db;
  db.Insert("base", Tuple({Value::Int(1)}));
  Program p = MustParse(src);
  Evaluator eval(p);
  ASSERT_TRUE(eval.Prepare().ok());
  ASSERT_TRUE(eval.Run(&db).ok());
  // p0 holds; p1 = not p0 -> empty; p2 = not p1 -> holds; alternating.
  for (int i = 0; i <= 12; ++i) {
    bool expect_holds = (i % 2 == 0);
    EXPECT_EQ(db.FactCount("p" + std::to_string(i)),
              expect_holds ? 1u : 0u)
        << "level " << i;
  }
}

}  // namespace
}  // namespace vada::datalog
