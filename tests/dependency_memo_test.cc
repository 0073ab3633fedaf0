// The orchestrator's input-dependency memo (DESIGN.md §5l): a dependency
// answer is reused while the versions of the relations its query reads
// (and the KB version epoch) are unchanged. These tests pin that the
// memo never changes an answer — against a fresh evaluation after every
// step of a seeded mutation stream that includes drops, re-creations and
// rolled-back writes — and that it actually removes the re-evaluations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/kb_adapter.h"
#include "kb/write_guard.h"
#include "transducer/network.h"
#include "transducer/transducer.h"

namespace vada {
namespace {

/// A transducer whose body does nothing: these tests only ask the
/// orchestrator whether its dependency holds.
std::unique_ptr<Transducer> Probe(const std::string& name,
                                  const std::string& dependency) {
  return std::make_unique<FunctionTransducer>(
      name, "probe", dependency, [](KnowledgeBase*) { return Status::OK(); });
}

/// Copies `from` into `to` (idempotent).
std::unique_ptr<Transducer> Copy(const std::string& name,
                                 const std::string& from,
                                 const std::string& to) {
  return std::make_unique<FunctionTransducer>(
      name, "copy", "ready() :- sys_relation_nonempty(\"" + from + "\").",
      [from, to](KnowledgeBase* kb) -> Status {
        const Relation* src = kb->FindRelation(from);
        if (src == nullptr) return Status::OK();
        Relation out(Schema(to, src->schema().attributes()));
        for (const Tuple& row : src->rows()) {
          VADA_RETURN_IF_ERROR(out.InsertUnchecked(row));
        }
        return kb->ReplaceRelationIfChanged(out);
      });
}

// Read sets over r0..r3 exercising joins, negation, derived predicates,
// comparisons, aggregation and the sys_* control relations.
const std::vector<std::string>& Dependencies() {
  static const std::vector<std::string> deps = {
      "ready() :- r0(1).",
      "ready() :- r0(X), r1(X).",
      "ready() :- r1(X), not r2(X).",
      "ready() :- sys_relation_nonempty(\"r2\").",
      "p(X) :- r0(X).\np(X) :- r3(X).\nready() :- p(X), X > 2.",
      "c(count<X>) :- r2(X).\nready() :- c(N), N >= 2.",
      "ready() :- sys_relation_nonempty(\"r0\"), not r1(5).",
      "ready() :- sys_relation_attribute(\"r3\", \"x\").",
  };
  return deps;
}

std::string RelationName(Rng* rng) {
  return "r" + std::to_string(rng->Index(4));
}

Tuple Row(Rng* rng) { return Tuple({Value::Int(rng->UniformInt(0, 5))}); }

/// One random mutation; failures of ops that need a missing relation
/// (insert into a dropped relation) are expected and ignored.
void Mutate(KnowledgeBase* kb, Rng* rng) {
  const std::string name = RelationName(rng);
  switch (rng->Index(6)) {
    case 0:
    case 1:
      (void)kb->EnsureRelation(Schema::Untyped(name, {"x"}));
      (void)kb->Insert(name, Row(rng));
      break;
    case 2:
      (void)kb->Retract(name, Row(rng));
      break;
    case 3:
      (void)kb->ClearRelation(name);
      break;
    case 4:
      (void)kb->DropRelation(name);
      break;
    default: {
      Relation replacement(Schema::Untyped(name, {"x"}));
      size_t rows = rng->Index(3);
      for (size_t i = 0; i < rows; ++i) {
        (void)replacement.Insert(Row(rng));
      }
      (void)kb->ReplaceRelationIfChanged(replacement);
      break;
    }
  }
}

/// Asks the orchestrator about every probe (memoised) and compares each
/// answer with a from-scratch evaluation over the same, synced KB.
void ExpectMemoMatchesFresh(NetworkTransducer* orchestrator,
                            const TransducerRegistry& registry,
                            KnowledgeBase* kb, const std::string& where) {
  for (const std::unique_ptr<Transducer>& t : registry.transducers()) {
    Result<bool> memoised = orchestrator->IsSatisfied(*t, kb);
    ASSERT_TRUE(memoised.ok()) << where << ": " << memoised.status().ToString();
    Result<std::vector<Tuple>> fresh =
        datalog::QueryKnowledgeBase(t->input_dependency(), *kb, "ready");
    ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status().ToString();
    ASSERT_EQ(memoised.value(), !fresh.value().empty())
        << where << ", dependency of " << t->name() << ":\n"
        << t->input_dependency();
  }
}

TEST(DependencyMemoTest, AnswersMatchFreshEvaluationUnderRandomMutations) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    TransducerRegistry registry;
    for (size_t i = 0; i < Dependencies().size(); ++i) {
      ASSERT_TRUE(
          registry.Add(Probe("t" + std::to_string(i), Dependencies()[i]))
              .ok());
    }
    // A second transducer per text shares its memo entry.
    ASSERT_TRUE(registry.Add(Probe("twin", Dependencies()[1])).ok());
    NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
    KnowledgeBase kb;
    for (int step = 0; step < 60; ++step) {
      const std::string where = "step " + std::to_string(step);
      if (rng.Bernoulli(0.25)) {
        // A guarded batch, asked about mid-transaction (the memo records
        // versions that a rollback hands out again), then rolled back or
        // committed.
        WriteGuard guard(&kb);
        size_t ops = 1 + rng.Index(3);
        for (size_t i = 0; i < ops; ++i) Mutate(&kb, &rng);
        ExpectMemoMatchesFresh(&orchestrator, registry, &kb,
                               where + " (inside guard)");
        if (rng.Bernoulli(0.6)) {
          guard.Rollback();
        } else {
          guard.Commit();
        }
      } else if (rng.Bernoulli(0.8)) {
        Mutate(&kb, &rng);
      }  // else: nothing changed, every answer must come from the memo
      ExpectMemoMatchesFresh(&orchestrator, registry, &kb, where);
    }
  }
}

TEST(DependencyMemoTest, UnchangedReadSetsSkipEvaluation) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("a", {Value::Int(1)}).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("flag", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("flag", {Value::Int(0)}).ok());
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(Copy("ab", "a", "b")).ok());
  ASSERT_TRUE(registry.Add(Copy("bc", "b", "c")).ok());
  ASSERT_TRUE(registry.Add(Probe("on_flag", "ready() :- flag(1).")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());

  OrchestrationStats first;
  ASSERT_TRUE(orchestrator.Run(&kb, &first).ok());
  EXPECT_EQ(kb.FindRelation("c")->size(), 1u);
  // Each distinct read-set state is evaluated once; every later scan of
  // it is a memo hit.
  EXPECT_GT(first.dependency_memo_hits, 0u);
  EXPECT_GT(first.dependency_checks, 0u);

  // New rows in `a`: only `ab` read `a`, and only `bc` read what `ab`
  // then wrote, so the refresh runs exactly those two. A dependency is
  // asked about only while its transducer is a candidate, so both
  // answers are evaluated once more: they were memoised before the first
  // Run's last control-fact sync (which listed `c`), and the two were not
  // candidates since.
  ASSERT_TRUE(kb.Insert("a", {Value::Int(2)}).ok());
  const size_t before = orchestrator.trace().size();
  OrchestrationStats second;
  ASSERT_TRUE(orchestrator.Run(&kb, &second).ok());
  EXPECT_EQ(kb.FindRelation("c")->size(), 2u);
  EXPECT_EQ(second.dependency_checks, 2u);
  std::vector<std::string> ran;
  for (size_t i = before; i < orchestrator.trace().size(); ++i) {
    ran.push_back(orchestrator.trace().events()[i].transducer);
  }
  EXPECT_EQ(ran, (std::vector<std::string>{"ab", "bc"}));

  // Nothing new: a Run executes and evaluates nothing.
  OrchestrationStats idle;
  ASSERT_TRUE(orchestrator.Run(&kb, &idle).ok());
  EXPECT_EQ(idle.steps, 0u);
  EXPECT_EQ(idle.dependency_checks, 0u);

  // A write to a read relation re-evaluates exactly the queries reading
  // it (flag stays non-empty, so the control facts do not move): `on_flag`
  // becomes ready once `flag(1)` holds.
  ASSERT_TRUE(kb.Insert("flag", {Value::Int(1)}).ok());
  OrchestrationStats third;
  ASSERT_TRUE(orchestrator.Run(&kb, &third).ok());
  EXPECT_EQ(third.dependency_checks, 1u);
  EXPECT_EQ(orchestrator.trace().events().back().transducer, "on_flag");
}

TEST(DependencyMemoTest, RolledBackAnswerIsNotServedForReusedVersions) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"x"})).ok());
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(Probe("t", "ready() :- r(1).")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  const Transducer& t = *registry.Find("t");

  uint64_t seen_version = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("r", {Value::Int(1)}).ok());
    seen_version = kb.relation_version("r");
    Result<bool> inside = orchestrator.IsSatisfied(t, &kb);
    ASSERT_TRUE(inside.ok());
    EXPECT_TRUE(inside.value());
    guard.Rollback();
  }
  // The next write reuses the rolled-back version number for different
  // contents; only the version epoch keeps the memo from answering.
  ASSERT_TRUE(kb.Insert("r", {Value::Int(2)}).ok());
  ASSERT_EQ(kb.relation_version("r"), seen_version);
  Result<bool> after = orchestrator.IsSatisfied(t, &kb);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value());
}

TEST(DependencyMemoTest, ControlFactsResyncWhenRollbackReusesTheSyncedVersion) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("a", {Value::Int(1)}).ok());
  TransducerRegistry registry;
  ASSERT_TRUE(
      registry.Add(Probe("n", "ready() :- sys_relation_nonempty(\"n\").")).ok());
  ASSERT_TRUE(
      registry.Add(Probe("m", "ready() :- sys_relation_nonempty(\"m\").")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  ASSERT_TRUE(orchestrator.SyncControlFactsIfStale(&kb).ok());

  uint64_t synced_version = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("n", {"x"})).ok());
    ASSERT_TRUE(kb.Insert("n", {Value::Int(1)}).ok());
    Result<bool> n = orchestrator.IsSatisfied(*registry.Find("n"), &kb);
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value());
    synced_version = kb.global_version();  // includes the sync's own bumps
    guard.Rollback();
  }
  // Climb back to exactly the version the rolled-back sync recorded,
  // through different writes.
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("m", {"x"})).ok());
  int64_t next = 0;
  while (kb.global_version() < synced_version) {
    ASSERT_TRUE(kb.Insert("m", {Value::Int(next++)}).ok());
  }
  ASSERT_EQ(kb.global_version(), synced_version);
  Result<bool> m = orchestrator.IsSatisfied(*registry.Find("m"), &kb);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m.value());
  Result<bool> n = orchestrator.IsSatisfied(*registry.Find("n"), &kb);
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n.value());
}

}  // namespace
}  // namespace vada
