#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kb/durability.h"
#include "kb/fs_util.h"
#include "kb/knowledge_base.h"
#include "kb/wal.h"
#include "kb/write_guard.h"
#include "kb_digest_test_util.h"

namespace vada {
namespace {

TEST(KnowledgeBaseTest, CreateAndLookup) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  EXPECT_TRUE(kb.HasRelation("r"));
  EXPECT_NE(kb.FindRelation("r"), nullptr);
  EXPECT_EQ(kb.FindRelation("missing"), nullptr);
  EXPECT_FALSE(kb.GetRelation("missing").ok());
}

TEST(KnowledgeBaseTest, CreateDuplicateFails) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  EXPECT_EQ(kb.CreateRelation(Schema::Untyped("r", {"a"})).code(),
            StatusCode::kAlreadyExists);
}

TEST(KnowledgeBaseTest, EnsureRelationIdempotentButSchemaStrict) {
  KnowledgeBase kb;
  Schema s = Schema::Untyped("r", {"a"});
  ASSERT_TRUE(kb.EnsureRelation(s).ok());
  EXPECT_TRUE(kb.EnsureRelation(s).ok());
  EXPECT_EQ(kb.EnsureRelation(Schema::Untyped("r", {"b"})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(KnowledgeBaseTest, VersionsBumpOnlyOnRealChanges) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  uint64_t v0 = kb.relation_version("r");
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  uint64_t v1 = kb.relation_version("r");
  EXPECT_GT(v1, v0);
  // Duplicate insert: no bump.
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  EXPECT_EQ(kb.relation_version("r"), v1);
  // Retract bumps.
  ASSERT_TRUE(kb.Retract("r", Tuple({Value::Int(1)})).ok());
  EXPECT_GT(kb.relation_version("r"), v1);
  // Retracting a missing tuple: no bump.
  uint64_t v2 = kb.relation_version("r");
  ASSERT_TRUE(kb.Retract("r", Tuple({Value::Int(9)})).ok());
  EXPECT_EQ(kb.relation_version("r"), v2);
}

TEST(KnowledgeBaseTest, GlobalVersionTracksAllRelations) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("b", {"x"})).ok());
  uint64_t g = kb.global_version();
  ASSERT_TRUE(kb.Assert("a", {Value::Int(1)}).ok());
  ASSERT_TRUE(kb.Assert("b", {Value::Int(1)}).ok());
  EXPECT_EQ(kb.global_version(), g + 2);
}

TEST(KnowledgeBaseTest, InsertIntoUnknownRelationFails) {
  KnowledgeBase kb;
  EXPECT_EQ(kb.Assert("nope", {Value::Int(1)}).code(), StatusCode::kNotFound);
}

TEST(KnowledgeBaseTest, InsertAllCreatesAndFills) {
  KnowledgeBase kb;
  Relation rel(Schema::Untyped("r", {"a"}));
  ASSERT_TRUE(rel.Insert(Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(rel.Insert(Tuple({Value::Int(2)})).ok());
  ASSERT_TRUE(kb.InsertAll(rel).ok());
  EXPECT_EQ(kb.FindRelation("r")->size(), 2u);
}

DurabilityOptions DurableOptions(const std::string& name) {
  DurabilityOptions options;
  options.enabled = true;
  options.directory = testing::TempDir() + "/vada_kb_" + name;
  options.fsync = FsyncPolicy::kNone;
  EXPECT_TRUE(RemoveRecursively(options.directory).ok());
  return options;
}

Relation IntRows(const std::string& name, const std::vector<int>& values) {
  Relation rel(Schema::Untyped(name, {"a"}));
  for (int v : values) {
    EXPECT_TRUE(rel.Insert(Tuple({Value::Int(v)})).ok());
  }
  return rel;
}

TEST(KnowledgeBaseTest, InsertAllWithAnIllTypedRowChangesNothing) {
  const DurabilityOptions options = DurableOptions("insert_all");
  const Schema schema("r", {{"a", AttributeType::kInt}});
  {
    KnowledgeBase kb;
    Result<std::unique_ptr<DurabilityManager>> durability =
        DurabilityManager::Open(options, &kb);
    ASSERT_TRUE(durability.ok()) << durability.status().ToString();
    ASSERT_TRUE(kb.CreateRelation(schema).ok());
    ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
    const uint64_t version = kb.relation_version("r");
    const uint64_t global_version = kb.global_version();
    const uint64_t facts_added = kb.facts_added();
    const uint64_t wal_records = durability.value()->wal()->appended_records();

    // The first row is fine, the second is not: nothing may be applied.
    Relation batch(schema);
    ASSERT_TRUE(batch.InsertUnchecked(Tuple({Value::Int(2)})).ok());
    ASSERT_TRUE(batch.InsertUnchecked(Tuple({Value::String("y")})).ok());
    EXPECT_EQ(kb.InsertAll(batch).code(), StatusCode::kInvalidArgument);
    // Nor is a relation created for a batch that fails.
    Relation fresh(Schema("s", {{"a", AttributeType::kInt}}));
    ASSERT_TRUE(fresh.InsertUnchecked(Tuple({Value::String("y")})).ok());
    EXPECT_EQ(kb.InsertAll(fresh).code(), StatusCode::kInvalidArgument);

    EXPECT_EQ(kb.FindRelation("r")->rows(),
              (std::vector<Tuple>{Tuple({Value::Int(1)})}));
    EXPECT_FALSE(kb.HasRelation("s"));
    EXPECT_EQ(kb.relation_version("r"), version);
    EXPECT_EQ(kb.global_version(), global_version);
    EXPECT_EQ(kb.facts_added(), facts_added);
    EXPECT_EQ(durability.value()->wal()->appended_records(), wal_records);
  }
  KnowledgeBase reopened;
  Result<std::unique_ptr<DurabilityManager>> durability =
      DurabilityManager::Open(options, &reopened);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();
  ASSERT_NE(reopened.FindRelation("r"), nullptr);
  EXPECT_EQ(reopened.FindRelation("r")->size(), 1u);
  EXPECT_FALSE(reopened.HasRelation("s"));
}

TEST(KnowledgeBaseTest, ReplaceKeepsTheRelationsAddress) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {1, 2})).ok());
  const Relation* before = kb.FindRelation("r");
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {7, 8, 9})).ok());
  EXPECT_EQ(kb.FindRelation("r"), before);
  EXPECT_EQ(before->rows(), IntRows("r", {7, 8, 9}).rows());
  bool changed = false;
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(IntRows("r", {4}), &changed).ok());
  EXPECT_TRUE(changed);
  EXPECT_EQ(kb.FindRelation("r"), before);
  EXPECT_EQ(before->rows(), IntRows("r", {4}).rows());
}

TEST(KnowledgeBaseTest, ReplaceIfChangedWithReorderedRowsIsANoOp) {
  KnowledgeBase kb;
  Result<std::unique_ptr<DurabilityManager>> durability =
      DurabilityManager::Open(DurableOptions("replace_if_changed"), &kb);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();
  ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {1, 2, 3})).ok());
  const uint64_t version = kb.relation_version("r");
  const uint64_t global_version = kb.global_version();
  const uint64_t facts_added = kb.facts_added();
  const uint64_t facts_removed = kb.facts_removed();
  const uint64_t wal_records = durability.value()->wal()->appended_records();
  ASSERT_GT(wal_records, 0u);  // the WAL logs this KB's writes
  ReadSet reads;
  kb.RecordAccesses(&reads);
  bool changed = true;
  ASSERT_TRUE(
      kb.ReplaceRelationIfChanged(IntRows("r", {3, 1, 2}), &changed).ok());
  kb.RecordAccesses(nullptr);
  EXPECT_FALSE(changed);
  EXPECT_EQ(reads.relations.count("r"), 1u);  // still the caller's output
  // The KB keeps its own row order; nothing moved or was logged.
  EXPECT_EQ(kb.FindRelation("r")->rows(), IntRows("r", {1, 2, 3}).rows());
  EXPECT_EQ(kb.relation_version("r"), version);
  EXPECT_EQ(kb.global_version(), global_version);
  EXPECT_EQ(kb.facts_added(), facts_added);
  EXPECT_EQ(kb.facts_removed(), facts_removed);
  EXPECT_EQ(durability.value()->wal()->appended_records(), wal_records);
  // A different row set of the same size is a change.
  ASSERT_TRUE(
      kb.ReplaceRelationIfChanged(IntRows("r", {3, 1, 4}), &changed).ok());
  EXPECT_TRUE(changed);
  EXPECT_EQ(kb.FindRelation("r")->rows(), IntRows("r", {3, 1, 4}).rows());
}

TEST(KnowledgeBaseTest, MovedReplacesReopenToTheSameDigest) {
  const DurabilityOptions options = DurableOptions("moved_replaces");
  std::string digest;
  std::vector<Tuple> order;
  {
    KnowledgeBase kb;
    Result<std::unique_ptr<DurabilityManager>> durability =
        DurabilityManager::Open(options, &kb);
    ASSERT_TRUE(durability.ok()) << durability.status().ToString();
    {
      WriteGuard guard(&kb);
      ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {5, 3, 9})).ok());
      ASSERT_TRUE(kb.ReplaceRelationIfChanged(IntRows("s", {1})).ok());
      kb.catalog().SetRole("s", RelationRole::kMetadata);
      guard.Commit();
    }
    {
      WriteGuard guard(&kb);
      ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {8, 6})).ok());
      ASSERT_TRUE(kb.ReplaceRelationIfChanged(IntRows("r", {6, 8})).ok());
      ASSERT_TRUE(kb.ReplaceRelationIfChanged(IntRows("s", {2, 1})).ok());
      guard.Commit();
    }
    {
      WriteGuard guard(&kb);  // rolled back: leaves no WAL trace
      ASSERT_TRUE(kb.ReplaceRelation(IntRows("r", {0})).ok());
    }
    ASSERT_TRUE(durability.value()->status().ok());
    digest = KbDigest(kb);
    order = kb.FindRelation("r")->rows();
  }
  KnowledgeBase reopened;
  Result<std::unique_ptr<DurabilityManager>> durability =
      DurabilityManager::Open(options, &reopened);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();
  EXPECT_TRUE(durability.value()->recovery().recovered);
  EXPECT_EQ(KbDigest(reopened), digest);
  EXPECT_EQ(reopened.FindRelation("r")->rows(), order);
  EXPECT_EQ(order, IntRows("r", {8, 6}).rows());
}

TEST(KnowledgeBaseTest, ReplaceRelationSwapsContents) {
  KnowledgeBase kb;
  Relation v1(Schema::Untyped("r", {"a"}));
  ASSERT_TRUE(v1.Insert(Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(kb.ReplaceRelation(v1).ok());
  Relation v2(Schema::Untyped("r", {"a"}));
  ASSERT_TRUE(v2.Insert(Tuple({Value::Int(9)})).ok());
  ASSERT_TRUE(kb.ReplaceRelation(v2).ok());
  ASSERT_EQ(kb.FindRelation("r")->size(), 1u);
  EXPECT_EQ(kb.FindRelation("r")->rows()[0].at(0), Value::Int(9));
}

TEST(KnowledgeBaseTest, ClearAndDrop) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  ASSERT_TRUE(kb.ClearRelation("r").ok());
  EXPECT_TRUE(kb.HasRelation("r"));
  EXPECT_EQ(kb.FindRelation("r")->size(), 0u);
  ASSERT_TRUE(kb.DropRelation("r").ok());
  EXPECT_FALSE(kb.HasRelation("r"));
  EXPECT_FALSE(kb.DropRelation("r").ok());
}

TEST(KnowledgeBaseTest, RelationNamesSorted) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("zebra", {"a"})).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("apple", {"a"})).ok());
  EXPECT_EQ(kb.RelationNames(), (std::vector<std::string>{"apple", "zebra"}));
}

TEST(KnowledgeBaseTest, AccessLogRecordsLookupsWritesAndRoles) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  kb.catalog().SetRole("r", RelationRole::kSource);

  ReadSet log;
  kb.RecordAccesses(&log);
  (void)kb.FindRelation("r");
  (void)kb.HasRelation("absent");
  (void)kb.relation_version("v");
  (void)kb.catalog().RelationsWithRole(RelationRole::kSource);
  // A replace that changes nothing is still recorded as a write.
  Relation same(Schema::Untyped("r", {"a"}));
  ASSERT_TRUE(same.Insert(Tuple({Value::Int(1)})).ok());
  bool changed = true;
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(same, &changed).ok());
  EXPECT_FALSE(changed);
  ASSERT_TRUE(kb.EnsureRelation(Schema::Untyped("out", {"a"})).ok());
  kb.RecordAccesses(nullptr);
  (void)kb.FindRelation("after_detach");

  EXPECT_EQ(log.relations,
            (std::set<std::string>{"absent", "out", "r", "v"}));
  EXPECT_EQ(log.roles, (std::set<RelationRole>{RelationRole::kSource}));
  EXPECT_FALSE(log.whole_kb);

  ReadSet whole;
  kb.RecordAccesses(&whole);
  (void)kb.RelationNames();
  kb.RecordAccesses(nullptr);
  EXPECT_TRUE(whole.whole_kb);
}

TEST(ReadSetKeyTest, HoldsUntilARecordedRelationOrRoleMoves) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("other", {"a"})).ok());
  ReadSet reads;
  reads.relations = {"r", "absent"};
  reads.roles = {RelationRole::kSource};
  const ReadSetKey key(kb, reads);
  EXPECT_FALSE(ReadSetKey().Holds(kb));
  EXPECT_TRUE(key.Holds(kb));

  // Writes elsewhere, and roles it did not list, leave it holding.
  ASSERT_TRUE(kb.Assert("other", {Value::Int(1)}).ok());
  kb.catalog().SetRole("other", RelationRole::kMetadata);
  EXPECT_TRUE(key.Holds(kb));

  // A relation entering the listed role moves it; so does leaving it.
  kb.catalog().SetRole("other", RelationRole::kSource);
  EXPECT_FALSE(key.Holds(kb));
  const ReadSetKey listed(kb, reads);
  kb.catalog().Remove("other");
  EXPECT_FALSE(listed.Holds(kb));

  // Creating a relation it found absent moves it.
  const ReadSetKey before_create(kb, reads);
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("absent", {"a"})).ok());
  EXPECT_FALSE(before_create.Holds(kb));

  // A whole-KB key moves with any write.
  const ReadSetKey everything = ReadSetKey::WholeKb(kb);
  EXPECT_TRUE(everything.Holds(kb));
  ASSERT_TRUE(kb.Assert("other", {Value::Int(2)}).ok());
  EXPECT_FALSE(everything.Holds(kb));

  // Checking a key that holds looks up everything it names, so an
  // attached log records its read set, as a recomputation would have.
  const ReadSetKey current(kb, reads);
  ReadSet log;
  kb.RecordAccesses(&log);
  EXPECT_TRUE(current.Holds(kb));
  kb.RecordAccesses(nullptr);
  EXPECT_EQ(log.relations, reads.relations);
  EXPECT_EQ(log.roles, reads.roles);
}

TEST(ReadSetKeyTest, MissRecordsNothing) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("b", {"x"})).ok());
  ReadSet reads;
  reads.relations = {"a", "b"};
  reads.schemas = {"s"};
  const ReadSetKey key(kb, reads);
  // "a" still matches and is checked before "b", which moved: a failed
  // check leaves nothing in the log, so a recomputation that no longer
  // reads "a" is keyed on exactly what it reads.
  ASSERT_TRUE(kb.Assert("b", {Value::Int(1)}).ok());
  ReadSet log;
  kb.RecordAccesses(&log);
  EXPECT_FALSE(key.Holds(kb));
  kb.RecordAccesses(nullptr);
  EXPECT_TRUE(log.relations.empty());
  EXPECT_TRUE(log.schemas.empty());
}

TEST(ReadSetKeyTest, SchemaVersionMovesOnlyWithTheSchema) {
  KnowledgeBase kb;
  EXPECT_EQ(kb.schema_version("r"), 0u);
  EXPECT_EQ(kb.FindSchema("r"), nullptr);
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a", "b"})).ok());
  const uint64_t created = kb.schema_version("r");
  EXPECT_GT(created, 0u);
  ReadSet reads;
  reads.schemas = {"r"};
  const ReadSetKey key(kb, reads);

  // Rows move the relation's version, not its schema's.
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(kb.schema_version("r"), created);
  EXPECT_TRUE(key.Holds(kb));
  ReadSet log;
  kb.RecordAccesses(&log);
  const Schema* schema = kb.FindSchema("r");
  kb.RecordAccesses(nullptr);
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->arity(), 2u);
  EXPECT_TRUE(log.relations.empty());
  EXPECT_EQ(log.schemas, std::set<std::string>{"r"});

  // A rolled-back drop and re-creation under another schema restores the
  // creation version with the schema; a real one moves it.
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.DropRelation("r").ok());
    ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"c"})).ok());
    EXPECT_NE(kb.schema_version("r"), created);
    guard.Rollback();
  }
  EXPECT_EQ(kb.schema_version("r"), created);
  EXPECT_EQ(kb.FindSchema("r")->arity(), 2u);
  ASSERT_TRUE(kb.DropRelation("r").ok());
  EXPECT_EQ(kb.schema_version("r"), 0u);
  EXPECT_FALSE(key.Holds(kb));
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"c"})).ok());
  EXPECT_GT(kb.schema_version("r"), created);
}

TEST(ReadSetKeyTest, RolledBackRoleChangeMovesTheRoleVersion) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  const uint64_t version = kb.catalog().role_version(RelationRole::kSource);
  {
    WriteGuard guard(&kb);
    kb.catalog().SetRole("r", RelationRole::kSource);
    guard.Rollback();
  }
  // Membership is back to what it was, but the version never goes back:
  // a key taken inside the rolled-back transaction cannot hold again.
  EXPECT_TRUE(kb.catalog().RelationsWithRole(RelationRole::kSource).empty());
  EXPECT_GT(kb.catalog().role_version(RelationRole::kSource), version + 1);
}

TEST(CatalogTest, RolesRoundTrip) {
  Catalog cat;
  cat.SetRole("rightmove", RelationRole::kSource);
  cat.SetRole("target", RelationRole::kTarget);
  cat.SetRole("address", RelationRole::kReference);
  EXPECT_EQ(*cat.GetRole("rightmove"), RelationRole::kSource);
  EXPECT_FALSE(cat.GetRole("unknown").has_value());
  EXPECT_EQ(cat.RelationsWithRole(RelationRole::kSource),
            (std::vector<std::string>{"rightmove"}));
  EXPECT_TRUE(cat.IsDataContext("address"));
  EXPECT_FALSE(cat.IsDataContext("rightmove"));
  cat.Remove("address");
  EXPECT_FALSE(cat.GetRole("address").has_value());
}

TEST(CatalogTest, RoleNames) {
  EXPECT_STREQ(RelationRoleName(RelationRole::kSource), "source");
  EXPECT_STREQ(RelationRoleName(RelationRole::kReference), "reference");
  EXPECT_STREQ(RelationRoleName(RelationRole::kResult), "result");
  for (size_t i = 0; i < kRelationRoleCount; ++i) {
    const RelationRole role = static_cast<RelationRole>(i);
    Result<RelationRole> back = RelationRoleFromName(RelationRoleName(role));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), role);
  }
  EXPECT_EQ(RelationRoleFromName("sauce").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace vada
