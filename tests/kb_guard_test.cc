#include "kb/write_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"

namespace vada {
namespace {

KnowledgeBase MakeKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x", "y"})).ok());
  EXPECT_TRUE(kb.Insert("a", {Value::Int(1), Value::String("one")}).ok());
  EXPECT_TRUE(kb.Insert("a", {Value::Int(2), Value::String("two")}).ok());
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("b", {"z"})).ok());
  EXPECT_TRUE(kb.Insert("b", {Value::String("keep")}).ok());
  kb.catalog().SetRole("a", RelationRole::kSource);
  return kb;
}

/// Byte-level fingerprint of everything rollback promises to restore:
/// relation names, row contents *and order*, per-relation versions, the
/// global version, the lifetime facts counters, and catalog roles.
struct KbFingerprint {
  std::vector<std::string> relations;
  std::map<std::string, std::vector<Tuple>> rows;
  std::map<std::string, uint64_t> versions;
  uint64_t global_version = 0;
  uint64_t facts_added = 0;
  uint64_t facts_removed = 0;
  std::map<std::string, std::string> roles;
};

KbFingerprint Fingerprint(const KnowledgeBase& kb) {
  KbFingerprint fp;
  fp.relations = kb.RelationNames();
  for (const std::string& name : fp.relations) {
    const Relation* rel = kb.FindRelation(name);
    fp.rows[name] = rel->rows();
    fp.versions[name] = kb.relation_version(name);
    std::optional<RelationRole> role = kb.catalog().GetRole(name);
    if (role.has_value()) fp.roles[name] = RelationRoleName(*role);
  }
  fp.global_version = kb.global_version();
  fp.facts_added = kb.facts_added();
  fp.facts_removed = kb.facts_removed();
  return fp;
}

void ExpectIdentical(const KbFingerprint& before, const KbFingerprint& after) {
  EXPECT_EQ(before.relations, after.relations);
  EXPECT_EQ(before.rows, after.rows);
  EXPECT_EQ(before.versions, after.versions);
  EXPECT_EQ(before.global_version, after.global_version);
  EXPECT_EQ(before.facts_added, after.facts_added);
  EXPECT_EQ(before.facts_removed, after.facts_removed);
  EXPECT_EQ(before.roles, after.roles);
}

TEST(WriteGuardTest, RollbackRestoresKbExactly) {
  KnowledgeBase kb = MakeKb();
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    // Touch the KB every way a transducer can.
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("three")}).ok());
    ASSERT_TRUE(kb.Retract("a", {Value::Int(1), Value::String("one")}).ok());
    ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("fresh", {"w"})).ok());
    ASSERT_TRUE(kb.Insert("fresh", {Value::Int(9)}).ok());
    ASSERT_TRUE(kb.ClearRelation("b").ok());
    kb.catalog().SetRole("fresh", RelationRole::kMetadata);
    ASSERT_NE(kb.global_version(), before.global_version);
    guard.Rollback();
  }
  ExpectIdentical(before, Fingerprint(kb));
  EXPECT_FALSE(kb.HasRelation("fresh"));
}

TEST(WriteGuardTest, DestructorRollsBackByDefault) {
  KnowledgeBase kb = MakeKb();
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("three")}).ok());
    // No Commit(): leaving scope must undo the insert.
  }
  ExpectIdentical(before, Fingerprint(kb));
}

TEST(WriteGuardTest, CommitKeepsWrites) {
  KnowledgeBase kb = MakeKb();
  uint64_t version_before = kb.global_version();
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("three")}).ok());
    EXPECT_EQ(guard.touched_relations(), 1u);
    guard.Commit();
    EXPECT_FALSE(guard.active());
  }
  EXPECT_EQ(kb.FindRelation("a")->size(), 3u);
  EXPECT_GT(kb.global_version(), version_before);
}

Relation Rows(const std::string& name, const std::vector<int>& values) {
  Relation rel(Schema::Untyped(name, {"x", "y"}));
  for (int v : values) {
    EXPECT_TRUE(
        rel.Insert(Tuple({Value::Int(v), Value::String(std::to_string(v))}))
            .ok());
  }
  return rel;
}

TEST(WriteGuardTest, RollbackAfterTwoReplacesRestoresThePreImage) {
  KnowledgeBase kb = MakeKb();
  const Relation* a = kb.FindRelation("a");
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.ReplaceRelation(Rows("a", {7, 5, 6})).ok());
    EXPECT_EQ(guard.touched_relations(), 1u);
    bool changed = false;
    ASSERT_TRUE(kb.ReplaceRelationIfChanged(Rows("a", {9}), &changed).ok());
    EXPECT_TRUE(changed);
    // One pre-image, the relation as it was before the first replace.
    EXPECT_EQ(guard.touched_relations(), 1u);
    EXPECT_EQ(a->rows(), Rows("a", {9}).rows());
    guard.Rollback();
  }
  ExpectIdentical(before, Fingerprint(kb));
  EXPECT_EQ(kb.FindRelation("a"), a);
}

TEST(WriteGuardTest, RollbackOfAnInsertThenAReplaceRestoresThePreImage) {
  KnowledgeBase kb = MakeKb();
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    // The insert copies the pre-image; the replace finds it saved.
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("3")}).ok());
    ASSERT_TRUE(kb.ReplaceRelation(Rows("a", {4})).ok());
    ASSERT_TRUE(kb.ReplaceRelation(Rows("fresh", {1})).ok());
    EXPECT_EQ(guard.touched_relations(), 2u);
    guard.Rollback();
  }
  ExpectIdentical(before, Fingerprint(kb));
  EXPECT_FALSE(kb.HasRelation("fresh"));
}

TEST(WriteGuardTest, RollbackLeavesRelationsWhoseVersionDidNotMove) {
  KnowledgeBase kb = MakeKb();
  ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("three")}).ok());
  const size_t bytes = kb.FindRelation("a")->ApproxBytes();
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    // No-op mutations still save a pre-image (a copy, sized to fit).
    ASSERT_TRUE(kb.Insert("a", {Value::Int(1), Value::String("one")}).ok());
    ASSERT_TRUE(kb.Retract("a", {Value::Int(8), Value::String("x")}).ok());
    EXPECT_EQ(guard.touched_relations(), 1u);
    guard.Rollback();
  }
  ExpectIdentical(before, Fingerprint(kb));
  // The KB kept its own relation, so its capacity did not change.
  EXPECT_EQ(kb.FindRelation("a")->ApproxBytes(), bytes);
}

TEST(WriteGuardTest, RollbackRestoresRowOrder) {
  KnowledgeBase kb = MakeKb();
  std::vector<Tuple> order_before = kb.FindRelation("a")->rows();
  {
    WriteGuard guard(&kb);
    Relation replacement(Schema::Untyped("a", {"x", "y"}));
    ASSERT_TRUE(
        replacement.InsertUnchecked({Value::Int(2), Value::String("two")})
            .ok());
    ASSERT_TRUE(
        replacement.InsertUnchecked({Value::Int(1), Value::String("one")})
            .ok());
    ASSERT_TRUE(kb.ReplaceRelation(replacement).ok());
  }
  EXPECT_EQ(kb.FindRelation("a")->rows(), order_before);
}

TEST(WriteGuardTest, DroppedRelationIsResurrected) {
  KnowledgeBase kb = MakeKb();
  KbFingerprint before = Fingerprint(kb);
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.DropRelation("a").ok());
    ASSERT_FALSE(kb.HasRelation("a"));
  }
  ExpectIdentical(before, Fingerprint(kb));
}

TEST(WriteGuardTest, UntouchedRelationsAreNotSnapshotted) {
  KnowledgeBase kb = MakeKb();
  WriteGuard guard(&kb);
  EXPECT_EQ(guard.touched_relations(), 0u);
  ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("x")}).ok());
  ASSERT_TRUE(kb.Insert("a", {Value::Int(4), Value::String("y")}).ok());
  EXPECT_EQ(guard.touched_relations(), 1u);  // copy-on-write: once per rel
  guard.Commit();
}

TEST(WriteGuardTest, RollbackIsIdempotentAndNoOpAfterCommit) {
  KnowledgeBase kb = MakeKb();
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("x")}).ok());
    guard.Commit();
    guard.Rollback();  // must be a no-op now
    guard.Rollback();
  }
  EXPECT_EQ(kb.FindRelation("a")->size(), 3u);
  EXPECT_FALSE(kb.HasActiveGuard());
}

TEST(WriteGuardTest, SequentialGuardsOnOneKb) {
  KnowledgeBase kb = MakeKb();
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("x")}).ok());
  }  // rolled back
  EXPECT_FALSE(kb.HasActiveGuard());
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("x")}).ok());
    guard.Commit();
  }
  EXPECT_EQ(kb.FindRelation("a")->size(), 3u);
}

TEST(WriteGuardTest, VersionEpochMarksRewoundVersions) {
  KnowledgeBase kb = MakeKb();
  const uint64_t epoch = kb.version_epoch();
  {
    WriteGuard guard(&kb);  // rolled back, but nothing was written
  }
  EXPECT_EQ(kb.version_epoch(), epoch);
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("a", {Value::Int(3), Value::String("x")}).ok());
    guard.Commit();
  }
  EXPECT_EQ(kb.version_epoch(), epoch);

  // A rollback that rewinds the global version hands its versions out
  // again: the same (relation, version) now names different rows, and
  // only the epoch tells the two apart.
  const uint64_t version = kb.global_version();
  uint64_t rolled_back_version = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Insert("b", {Value::String("first")}).ok());
    rolled_back_version = kb.relation_version("b");
  }
  EXPECT_EQ(kb.global_version(), version);  // rollback stays exact
  EXPECT_EQ(kb.version_epoch(), epoch + 1);
  ASSERT_TRUE(kb.Insert("b", {Value::String("second")}).ok());
  EXPECT_EQ(kb.relation_version("b"), rolled_back_version);
  EXPECT_EQ(kb.version_epoch(), epoch + 1);
}

}  // namespace
}  // namespace vada
