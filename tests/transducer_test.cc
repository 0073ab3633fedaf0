#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "transducer/network.h"
#include "transducer/transducer.h"
#include "fixpoint_auditor.h"

namespace vada {
namespace {

/// A transducer that copies facts from `from` to `to` (idempotent).
std::unique_ptr<Transducer> CopyTransducer(const std::string& name,
                                           const std::string& activity,
                                           const std::string& from,
                                           const std::string& to) {
  std::string dep = "ready() :- sys_relation_nonempty(\"" + from + "\").";
  return std::make_unique<FunctionTransducer>(
      name, activity, dep, [from, to](KnowledgeBase* kb) -> Status {
        const Relation* src = kb->FindRelation(from);
        if (src == nullptr) return Status::OK();
        Relation out(Schema(to, src->schema().attributes()));
        for (const Tuple& row : src->rows()) {
          VADA_RETURN_IF_ERROR(out.InsertUnchecked(row));
        }
        return kb->ReplaceRelationIfChanged(out);
      });
}

KnowledgeBase SeedKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  EXPECT_TRUE(kb.Assert("a", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.Assert("a", {Value::Int(2)}).ok());
  return kb;
}

TEST(RegistryTest, RejectsDuplicatesAndNull) {
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("t1", "act", "a", "b")).ok());
  EXPECT_EQ(registry.Add(CopyTransducer("t1", "act", "a", "c")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(registry.Add(nullptr).ok());
  EXPECT_NE(registry.Find("t1"), nullptr);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"t1"}));
}

TEST(ControlFactsTest, DescribeRelations) {
  KnowledgeBase kb = SeedKb();
  kb.catalog().SetRole("a", RelationRole::kSource);
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  const Relation* roles = kb.FindRelation("sys_relation_role");
  ASSERT_NE(roles, nullptr);
  EXPECT_TRUE(roles->Contains(
      Tuple({Value::String("a"), Value::String("source")})));
  const Relation* nonempty = kb.FindRelation("sys_relation_nonempty");
  ASSERT_NE(nonempty, nullptr);
  EXPECT_TRUE(nonempty->Contains(Tuple({Value::String("a")})));
  const Relation* attrs = kb.FindRelation("sys_relation_attribute");
  ASSERT_NE(attrs, nullptr);
  EXPECT_TRUE(
      attrs->Contains(Tuple({Value::String("a"), Value::String("x")})));
}

TEST(ControlFactsTest, SyncIsIdempotent) {
  KnowledgeBase kb = SeedKb();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  uint64_t version = kb.global_version();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  EXPECT_EQ(kb.global_version(), version);
}

TEST(ControlFactsTest, SysRelationsAreNotDescribed) {
  KnowledgeBase kb = SeedKb();
  // Control relations must never describe themselves (or any other sys_*
  // relation, e.g. sys_transducer_failure): that would make every sync
  // change the KB and the orchestration would never reach fixpoint.
  ASSERT_TRUE(
      kb.CreateRelation(Schema::Untyped("sys_custom", {"k"})).ok());
  ASSERT_TRUE(kb.Insert("sys_custom", {Value::String("v")}).ok());
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  uint64_t version = kb.global_version();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  EXPECT_EQ(kb.global_version(), version);
  const Relation* nonempty = kb.FindRelation("sys_relation_nonempty");
  ASSERT_NE(nonempty, nullptr);
  for (const Tuple& row : nonempty->rows()) {
    EXPECT_EQ(row.at(0).string_value().rfind("sys_", 0), std::string::npos)
        << "sys_ relation leaked into control facts: "
        << row.at(0).string_value();
  }
  const Relation* attrs = kb.FindRelation("sys_relation_attribute");
  ASSERT_NE(attrs, nullptr);
  for (const Tuple& row : attrs->rows()) {
    EXPECT_EQ(row.at(0).string_value().rfind("sys_", 0), std::string::npos);
  }
}

TEST(ControlFactsTest, SyncTracksKbChangesWithOneBump) {
  KnowledgeBase kb = SeedKb();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  const Relation* nonempty = kb.FindRelation("sys_relation_nonempty");
  ASSERT_NE(nonempty, nullptr);
  EXPECT_FALSE(nonempty->Contains(Tuple({Value::String("fresh")})));

  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("fresh", {"y"})).ok());
  ASSERT_TRUE(kb.Insert("fresh", {Value::Int(1)}).ok());
  uint64_t version = kb.global_version();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  // Replace-if-changed: changed control relations are updated…
  nonempty = kb.FindRelation("sys_relation_nonempty");
  EXPECT_TRUE(nonempty->Contains(Tuple({Value::String("fresh")})));
  EXPECT_GT(kb.global_version(), version);
  // …and a second sync with nothing new is a no-op again.
  version = kb.global_version();
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());
  EXPECT_EQ(kb.global_version(), version);
}

TEST(NetworkTest, ChainsTransducersToFixpoint) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("ab", "phase1", "a", "b")).ok());
  ASSERT_TRUE(registry.Add(CopyTransducer("bc", "phase2", "b", "c")).ok());
  NetworkTransducer orchestrator(
      &registry, std::make_unique<ActivityPriorityPolicy>(
                     std::vector<std::string>{"phase1", "phase2"}));
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  const Relation* c = kb.FindRelation("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->size(), 2u);
  EXPECT_GE(stats.steps, 2u);
  EXPECT_GE(stats.effective_steps, 2u);
}

TEST(NetworkTest, DependencyGatesExecution) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());  // empty!
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("ab", "act", "a", "b")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(kb.FindRelation("b"), nullptr);
}

TEST(NetworkTest, IsSatisfiedExposed) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("ab", "act", "a", "b")).ok());
  ASSERT_TRUE(registry.Add(CopyTransducer("cd", "act", "c", "d")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  Result<bool> ready_ab =
      orchestrator.IsSatisfied(*registry.Find("ab"), &kb);
  ASSERT_TRUE(ready_ab.ok());
  EXPECT_TRUE(ready_ab.value());
  Result<bool> ready_cd =
      orchestrator.IsSatisfied(*registry.Find("cd"), &kb);
  ASSERT_TRUE(ready_cd.ok());
  EXPECT_FALSE(ready_cd.value());
}

TEST(NetworkTest, NewFactsReenableTransducers) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("ab", "act", "a", "b")).ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  ASSERT_TRUE(orchestrator.Run(&kb).ok());
  EXPECT_EQ(kb.FindRelation("b")->size(), 2u);
  // New source fact arrives (the pay-as-you-go pattern).
  ASSERT_TRUE(kb.Assert("a", {Value::Int(3)}).ok());
  ASSERT_TRUE(orchestrator.Run(&kb).ok());
  EXPECT_EQ(kb.FindRelation("b")->size(), 3u);
}

TEST(NetworkTest, ActivityPriorityOrdersExecution) {
  KnowledgeBase kb = SeedKb();
  // Both depend on "a"; priority must run "first_act" before "second_act".
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(CopyTransducer("t2", "second_act", "a", "c")).ok());
  ASSERT_TRUE(registry.Add(CopyTransducer("t1", "first_act", "a", "b")).ok());
  NetworkTransducer orchestrator(
      &registry, std::make_unique<ActivityPriorityPolicy>(
                     std::vector<std::string>{"first_act", "second_act"}));
  ASSERT_TRUE(orchestrator.Run(&kb).ok());
  const ExecutionTrace& trace = orchestrator.trace();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace.events()[0].transducer, "t1");
}

/// Writes max(`from`) + 1 into `to`: two of these pointed at each other
/// keep changing each other's input forever.
std::unique_ptr<Transducer> Incrementer(const std::string& name,
                                        const std::string& from,
                                        const std::string& to) {
  return std::make_unique<FunctionTransducer>(
      name, "act", "ready() :- sys_relation_nonempty(\"" + from + "\").",
      [from, to](KnowledgeBase* kb) -> Status {
        int64_t top = 0;
        for (const Tuple& row : kb->FindRelation(from)->rows()) {
          top = std::max(top, row.at(0).int_value());
        }
        Relation out(Schema::Untyped(to, {"x"}));
        VADA_RETURN_IF_ERROR(out.Insert(Tuple({Value::Int(top + 1)})));
        return kb->ReplaceRelationIfChanged(out);
      });
}

TEST(NetworkTest, NonIdempotentTransducerHitsStepCap) {
  // Pathological: appends a new fact every run. Its key covers only its
  // own write, so the orchestrator does not run it again; the auditor,
  // which re-runs it, catches it.
  {
    KnowledgeBase kb = SeedKb();
    FixpointAuditor auditor;
    TransducerRegistry registry;
    registry.SetDecorator(auditor.Decorator());
    int counter = 0;
    ASSERT_TRUE(registry
                    .Add(std::make_unique<FunctionTransducer>(
                        "grower", "act",
                        "ready() :- sys_relation_nonempty(\"a\").",
                        [&counter](KnowledgeBase* kb) {
                          return kb->Assert("a",
                                            {Value::Int(1000 + counter++)});
                        }))
                    .ok());
    ASSERT_TRUE(registry.Add(CopyTransducer("ab", "act", "a", "b")).ok());
    OrchestratorOptions opts;
    opts.max_steps = 10;
    NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                   opts);
    ASSERT_TRUE(orchestrator.Run(&kb).ok());
    const uint64_t version = kb.global_version();
    EXPECT_EQ(auditor.Offenders(&kb), std::vector<std::string>{"grower"});
    EXPECT_EQ(kb.global_version(), version);  // the audit rolled back
  }
  // Two transducers that keep rewriting each other's input never reach a
  // fixpoint: the step cap stops them.
  {
    KnowledgeBase kb = SeedKb();
    TransducerRegistry registry;
    ASSERT_TRUE(registry.Add(Incrementer("ping", "a", "b")).ok());
    ASSERT_TRUE(registry.Add(Incrementer("pong", "b", "a")).ok());
    OrchestratorOptions opts;
    opts.max_steps = 10;
    NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                   opts);
    Status s = orchestrator.Run(&kb);
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_NE(s.message().find("max_steps"), std::string::npos);
  }
}

TEST(FixpointAuditorTest, FlagsAReadOutsideTheKnowledgeBase) {
  // `threshold` is read from outside the KB, so moving it changes what
  // the transducer would write without moving anything in its key.
  KnowledgeBase kb = SeedKb();
  FixpointAuditor auditor;
  TransducerRegistry registry;
  registry.SetDecorator(auditor.Decorator());
  int64_t threshold = 1;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "filter", "act",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      [&threshold](KnowledgeBase* kb) -> Status {
                        Relation out(Schema::Untyped("above", {"x"}));
                        for (const Tuple& row :
                             kb->FindRelation("a")->rows()) {
                          if (row.at(0).int_value() > threshold) {
                            VADA_RETURN_IF_ERROR(out.Insert(row));
                          }
                        }
                        return kb->ReplaceRelationIfChanged(out);
                      }))
                  .ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>());
  ASSERT_TRUE(orchestrator.Run(&kb).ok());
  EXPECT_TRUE(auditor.Offenders(&kb).empty());

  threshold = 0;  // hidden input moves; nothing in the KB does
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(kb.FindRelation("above")->size(), 1u);  // stale
  EXPECT_EQ(auditor.Offenders(&kb), std::vector<std::string>{"filter"});
}

TEST(NetworkTest, TransducerErrorSurfacesWithName) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "broken", "act",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      [](KnowledgeBase*) {
                        return Status::Internal("boom");
                      }))
                  .ok());
  // Default fault tolerance degrades gracefully; opt into fail-fast to
  // check that errors still surface with the transducer's name.
  OrchestratorOptions options;
  options.failure_policy.max_attempts = 1;
  options.failure_policy.on_failure_exhausted = FailureAction::kAbort;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  Status s = orchestrator.Run(&kb);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);  // code preserved, not wrapped
  EXPECT_NE(s.message().find("broken"), std::string::npos);
}

TEST(NetworkTest, BadDependencySyntaxSurfaces) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "bad_dep", "act", "ready( :- nope",
                      [](KnowledgeBase*) { return Status::OK(); }))
                  .ok());
  OrchestratorOptions options;
  options.failure_policy.on_failure_exhausted = FailureAction::kAbort;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  Status s = orchestrator.Run(&kb);
  EXPECT_FALSE(s.ok());
  // The parse error's code must survive (no InvalidArgument laundering).
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("bad_dep"), std::string::npos);
}

TEST(VadalogTransducerTest, DerivesAndAssertsFacts) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("edge", {"f", "t"})).ok());
  ASSERT_TRUE(kb.Assert("edge", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(kb.Assert("edge", {Value::Int(2), Value::Int(3)}).ok());
  VadalogTransducer t(
      "closure", "reasoning", "ready() :- sys_relation_nonempty(\"edge\").",
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).",
      {"tc"});
  ASSERT_TRUE(t.Execute(&kb).ok());
  const Relation* tc = kb.FindRelation("tc");
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->size(), 3u);
  // Idempotent: re-running adds nothing.
  uint64_t version = kb.global_version();
  ASSERT_TRUE(t.Execute(&kb).ok());
  EXPECT_EQ(kb.global_version(), version);
}

TEST(VadalogTransducerTest, BadProgramReportsError) {
  KnowledgeBase kb;
  VadalogTransducer t("bad", "act", "ready() :- x(Y).", "p(X :- nope",
                      {"p"});
  EXPECT_FALSE(t.Execute(&kb).ok());
}

TEST(TraceTest, CountsAndRendering) {
  ExecutionTrace trace;
  TraceEvent e1;
  e1.step = 0;
  e1.transducer = "alpha";
  e1.activity = "act";
  e1.changed_kb = true;
  TraceEvent e2;
  e2.step = 1;
  e2.transducer = "alpha";
  e2.activity = "act";
  e2.changed_kb = false;
  trace.Add(e1);
  trace.Add(e2);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.EffectiveSteps(), 1u);
  EXPECT_EQ(trace.ExecutionCounts().at("alpha"), 2u);
  EXPECT_NE(trace.ToString().find("alpha"), std::string::npos);
}

TEST(TraceTest, RenderingIncludesPolicyAndFactDeltas) {
  ExecutionTrace trace;
  TraceEvent e;
  e.step = 0;
  e.transducer = "alpha";
  e.activity = "act";
  e.policy = "activity_priority";
  e.changed_kb = true;
  e.facts_added = 12;
  e.facts_removed = 3;
  trace.Add(e);

  std::string text = trace.ToString();
  EXPECT_NE(text.find("+12/-3"), std::string::npos) << text;
  EXPECT_NE(text.find("policy: activity_priority"), std::string::npos) << text;

  std::string md = trace.ToMarkdown();
  EXPECT_NE(md.find("| policy |"), std::string::npos);
  EXPECT_NE(md.find("| +facts | -facts |"), std::string::npos);
  EXPECT_NE(md.find("| activity_priority |"), std::string::npos);
  EXPECT_NE(md.find("| 12 | 3 |"), std::string::npos) << md;
}

}  // namespace
}  // namespace vada
