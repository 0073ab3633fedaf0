// The orchestrator's input-dependency memo (DESIGN.md §5l): a dependency
// answer is reused while the versions of the relations its query reads
// (and the KB version epoch) are unchanged. These tests pin that the
// memo never changes an answer — against a fresh evaluation after every
// step of a seeded mutation stream that includes drops, re-creations,
// role changes and rolled-back writes — and that it actually removes the
// re-evaluations. The same stream pins the shape-keyed control-fact sync
// (DESIGN.md §5l, "Shape-keyed control facts"): after every step a full
// rebuild of the control relations changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
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
      "ready() :- sys_relation_role(\"r1\", \"source\").",
      "ready() :- sys_relation_role(R, \"target\"), "
      "sys_relation_nonempty(R).",
      "ready() :- sys_relation_attribute(R, \"y\"), r0(1).",
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
  switch (rng->Index(10)) {
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
    case 5: {  // a role set, or a role removal: the catalog alone moves
      static const RelationRole kRoles[] = {
          RelationRole::kSource, RelationRole::kTarget,
          RelationRole::kMetadata};
      const size_t pick = rng->Index(4);
      if (pick == 3) {
        kb->catalog().Remove(name);
      } else {
        kb->catalog().SetRole(name, kRoles[pick]);
      }
      break;
    }
    case 6: {  // retract row by row, down to the last one
      const Relation* rel = kb->FindRelation(name);
      if (rel == nullptr) break;
      const std::vector<Tuple> rows = rel->rows();
      for (const Tuple& row : rows) (void)kb->Retract(name, row);
      break;
    }
    case 7: {  // fill an empty relation, or create one (maybe as r(y))
      const Relation* rel = kb->FindRelation(name);
      if (rel != nullptr && rel->empty()) {
        (void)kb->Insert(name, Row(rng));
      } else {
        (void)kb->EnsureRelation(
            Schema::Untyped(name, {rng->Bernoulli(0.5) ? "x" : "y"}));
      }
      break;
    }
    case 8:  // someone other than the sync writes a control relation
      (void)kb->Insert("sys_relation_nonempty",
                       Tuple({Value::String("ghost")}));
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
/// answer with a from-scratch evaluation over the same, synced KB. Then
/// rebuilds the control relations in full: that must move nothing, or
/// the orchestrator's sync left them stale.
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
  const uint64_t synced = kb->global_version();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(kb).ok()) << where;
  ASSERT_EQ(kb->global_version(), synced)
      << where << ": control relations were stale";
}

/// What the control relations describe, relation by relation: role,
/// emptiness and attribute names of every non-sys relation.
std::vector<std::string> Shapes(const KnowledgeBase& kb) {
  std::vector<std::string> out;
  for (const std::string& name : kb.RelationNames()) {
    if (name.rfind("sys_", 0) == 0) continue;
    const Relation* rel = kb.FindRelation(name);
    std::optional<RelationRole> role = kb.catalog().GetRole(name);
    std::string shape = name + " " +
                        (role.has_value() ? RelationRoleName(*role) : "-") +
                        (rel->empty() ? " empty" : " nonempty");
    for (const Attribute& a : rel->schema().attributes()) shape += " " + a.name;
    out.push_back(std::move(shape));
  }
  return out;
}

/// Versions of the three control relations.
std::vector<uint64_t> ControlVersions(const KnowledgeBase& kb) {
  return {kb.relation_version("sys_relation_role"),
          kb.relation_version("sys_relation_nonempty"),
          kb.relation_version("sys_relation_attribute")};
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
    ExpectMemoMatchesFresh(&orchestrator, registry, &kb, "first sync");
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
        ExpectMemoMatchesFresh(&orchestrator, registry, &kb, where);
        continue;
      }
      // Unguarded: when no shape changed and nobody else wrote a control
      // relation, the sync must write nothing.
      const std::vector<std::string> shapes = Shapes(kb);
      const std::vector<uint64_t> control = ControlVersions(kb);
      if (rng.Bernoulli(0.8)) {
        Mutate(&kb, &rng);
      }  // else: nothing changed, every answer must come from the memo
      const uint64_t mutated = kb.global_version();
      const bool same_shape =
          Shapes(kb) == shapes && ControlVersions(kb) == control;
      ExpectMemoMatchesFresh(&orchestrator, registry, &kb, where);
      if (same_shape) {
        EXPECT_EQ(kb.global_version(), mutated)
            << where << ": a sync with no shape change wrote";
      }
    }
  }
}

TEST(DependencyMemoTest, SyncWithoutShapeChangeWritesNothing) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("a", {Value::Int(1)}).ok());
  kb.catalog().SetRole("a", RelationRole::kSource);
  TransducerRegistry registry;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  ASSERT_TRUE(orchestrator.SyncControlFactsIfStale(&kb).ok());

  // Rows move, shapes do not: no control relation is written.
  ASSERT_TRUE(kb.Insert("a", {Value::Int(2)}).ok());
  Relation replaced(Schema::Untyped("a", {"x"}));
  ASSERT_TRUE(replaced.Insert(Tuple({Value::Int(3)})).ok());
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(replaced).ok());
  uint64_t version = kb.global_version();
  ASSERT_TRUE(orchestrator.SyncControlFactsIfStale(&kb).ok());
  EXPECT_EQ(kb.global_version(), version);

  // Each shape change bumps exactly the control relation it affects.
  auto bumps = [&]() {
    const std::vector<uint64_t> before = ControlVersions(kb);
    const uint64_t global = kb.global_version();
    EXPECT_TRUE(orchestrator.SyncControlFactsIfStale(&kb).ok());
    const std::vector<uint64_t> after = ControlVersions(kb);
    std::vector<bool> moved;
    for (size_t i = 0; i < before.size(); ++i) {
      moved.push_back(after[i] != before[i]);
    }
    EXPECT_EQ(kb.global_version() - global,
              static_cast<uint64_t>(std::count(moved.begin(), moved.end(),
                                               true)));
    return moved;
  };
  ASSERT_TRUE(kb.Retract("a", Tuple({Value::Int(3)})).ok());  // now empty
  EXPECT_EQ(bumps(), (std::vector<bool>{false, true, false}));
  kb.catalog().SetRole("a", RelationRole::kTarget);
  EXPECT_EQ(bumps(), (std::vector<bool>{true, false, false}));
  // Dropped and re-created between two syncs, with another attribute.
  ASSERT_TRUE(kb.DropRelation("a").ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"y"})).ok());
  kb.catalog().SetRole("a", RelationRole::kTarget);
  EXPECT_EQ(bumps(), (std::vector<bool>{false, false, true}));
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("b", {"y"})).ok());
  EXPECT_EQ(bumps(), (std::vector<bool>{false, false, true}));
  ASSERT_TRUE(kb.DropRelation("b").ok());
  EXPECT_EQ(bumps(), (std::vector<bool>{false, false, true}));
  // Nothing left to do.
  EXPECT_EQ(bumps(), (std::vector<bool>{false, false, false}));
}

TEST(DependencyMemoTest, RoleChangeWithoutRelationWriteReachesControlFacts) {
  // Catalog::SetRole moves only the role's version, not the global one.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("r", {Value::Int(1)}).ok());
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "on_source", "probe",
                      "ready() :- sys_relation_role(_S, \"source\").",
                      [](KnowledgeBase* kb) {
                        return kb->Assert("seen", {Value::Int(1)});
                      }))
                  .ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("seen", {"x"})).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  const Transducer& t = *registry.Find("on_source");
  Result<bool> before = orchestrator.IsSatisfied(t, &kb);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value());

  const uint64_t version = kb.global_version();
  kb.catalog().SetRole("r", RelationRole::kSource);
  ASSERT_EQ(kb.global_version(), version);
  Result<bool> after = orchestrator.IsSatisfied(t, &kb);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value());
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  EXPECT_EQ(stats.steps, 1u);
  EXPECT_EQ(kb.FindRelation("seen")->size(), 1u);
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

TEST(DependencyMemoTest, ControlFactsResyncWhenRollbackReusesARelationVersion) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"x"})).ok());
  ASSERT_TRUE(kb.Insert("r", {Value::Int(1)}).ok());
  TransducerRegistry registry;
  ASSERT_TRUE(
      registry.Add(Probe("t", "ready() :- sys_relation_nonempty(\"r\").")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  const Transducer& t = *registry.Find("t");
  ASSERT_TRUE(orchestrator.SyncControlFactsIfStale(&kb).ok());

  uint64_t seen_version = 0;
  {
    // A sync inside the guard remembers r's new version; r's shape (and
    // so every control relation) is unchanged.
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("r", {Value::Int(2)}).ok());
    seen_version = kb.relation_version("r");
    Result<bool> inside = orchestrator.IsSatisfied(t, &kb);
    ASSERT_TRUE(inside.ok());
    EXPECT_TRUE(inside.value());
    guard.Rollback();
  }
  // The next write hands r the remembered version again, now empty.
  ASSERT_TRUE(kb.Retract("r", Tuple({Value::Int(1)})).ok());
  ASSERT_EQ(kb.relation_version("r"), seen_version);
  Result<bool> after = orchestrator.IsSatisfied(t, &kb);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value());
  // What the sync remembers of r is its empty shape, not the one seen
  // under the reused version: filling r again is a shape change.
  ASSERT_TRUE(kb.Insert("r", {Value::Int(3)}).ok());
  Result<bool> refilled = orchestrator.IsSatisfied(t, &kb);
  ASSERT_TRUE(refilled.ok());
  EXPECT_TRUE(refilled.value());
}

}  // namespace
}  // namespace vada
