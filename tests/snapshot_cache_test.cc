#include "datalog/snapshot_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "kb/knowledge_base.h"
#include "kb/write_guard.h"
#include "obs/metrics.h"
#include "transducer/network.h"

namespace vada::datalog {
namespace {

KnowledgeBase MakeKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  EXPECT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.Assert("r", {Value::Int(2)}).ok());
  return kb;
}

TEST(SnapshotCacheTest, SecondGetAtSameVersionIsAHit) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;

  std::shared_ptr<const Database> s1 = cache.Get(kb, "r");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->FactCount("r"), 2u);

  std::shared_ptr<const Database> s2 = cache.Get(kb, "r");
  EXPECT_EQ(s1.get(), s2.get());  // the very same snapshot object

  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.relations(), std::vector<std::string>{"r"});
}

TEST(SnapshotCacheTest, MutationMovesVersionAndRebuildsSnapshot) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;

  std::shared_ptr<const Database> before = cache.Get(kb, "r");
  ASSERT_TRUE(kb.Assert("r", {Value::Int(3)}).ok());

  std::shared_ptr<const Database> after = cache.Get(kb, "r");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->FactCount("r"), 2u);  // old snapshot is immutable
  EXPECT_EQ(after->FactCount("r"), 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SnapshotCacheTest, MissingRelationReturnsNullAndIsNotCached) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;
  EXPECT_EQ(cache.Get(kb, "absent"), nullptr);
  EXPECT_EQ(cache.Get(kb, "absent"), nullptr);
  EXPECT_TRUE(cache.relations().empty());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SnapshotCacheTest, RollbackRestoresVersionSoCachedEntryStaysValid) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;
  std::shared_ptr<const Database> before = cache.Get(kb, "r");
  const uint64_t v_before = kb.relation_version("r");
  const uint64_t epoch_before = kb.version_epoch();

  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(99)}).ok());
    guard.Rollback();
  }
  // Rollback restores contents *and* version counters together, but it
  // rewound the global counter, so it also moved the version epoch ...
  EXPECT_EQ(kb.relation_version("r"), v_before);
  EXPECT_EQ(kb.version_epoch(), epoch_before + 1);

  // ... which costs exactly one rebuild, with identical contents.
  std::shared_ptr<const Database> rebuilt = cache.Get(kb, "r");
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), before.get());
  EXPECT_EQ(rebuilt->facts("r"), before->facts("r"));
  EXPECT_EQ(cache.stats().misses, 2u);

  // The rebuilt entry is keyed on the new epoch and serves hits again.
  EXPECT_EQ(cache.Get(kb, "r").get(), rebuilt.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SnapshotCacheTest, RolledBackVersionIsNeverServedAgain) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  SnapshotCache cache;

  uint64_t rolled_back_version = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(99)}).ok());
    rolled_back_version = kb.relation_version("r");
    std::shared_ptr<const Database> inside = cache.Get(kb, "r");
    ASSERT_NE(inside, nullptr);
    ASSERT_TRUE(inside->Contains("r", Tuple({Value::Int(99)})));
    guard.Rollback();
  }

  // The rewound counter hands the rolled-back write's version out again:
  // (relation, version) alone would name the discarded contents.
  ASSERT_TRUE(kb.Assert("r", {Value::Int(7)}).ok());
  ASSERT_EQ(kb.relation_version("r"), rolled_back_version);

  std::shared_ptr<const Database> now = cache.Get(kb, "r");
  ASSERT_NE(now, nullptr);
  EXPECT_TRUE(now->Contains("r", Tuple({Value::Int(7)})));
  EXPECT_FALSE(now->Contains("r", Tuple({Value::Int(99)})));
  EXPECT_EQ(now->FactCount("r"), 2u);
}

TEST(SnapshotCacheTest, CommittedGuardKeepsNewVersionVisible) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;
  std::shared_ptr<const Database> before = cache.Get(kb, "r");
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(42)}).ok());
    guard.Commit();
  }
  std::shared_ptr<const Database> after = cache.Get(kb, "r");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->FactCount("r"), 3u);
}

TEST(SnapshotCacheTest, DropAndRecreateNeverReusesAVersionKey) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;
  std::shared_ptr<const Database> old_snapshot = cache.Get(kb, "r");
  ASSERT_EQ(old_snapshot->FactCount("r"), 2u);

  ASSERT_TRUE(kb.DropRelation("r").ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(7)}).ok());

  // Versions are allocated from the global counter, so the recreated
  // relation's version can never collide with the cached key — the next
  // Get must observe the new contents, not the stale snapshot.
  std::shared_ptr<const Database> fresh = cache.Get(kb, "r");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), old_snapshot.get());
  EXPECT_EQ(fresh->FactCount("r"), 1u);
  EXPECT_TRUE(fresh->Contains("r", Tuple({Value::Int(7)})));
}

TEST(SnapshotCacheTest, CatalogRoleChangeReachesCacheViaControlFacts) {
  KnowledgeBase kb = MakeKb();
  kb.catalog().SetRole("r", RelationRole::kSource);
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());

  SnapshotCache cache;
  std::shared_ptr<const Database> roles1 = cache.Get(kb, "sys_relation_role");
  ASSERT_NE(roles1, nullptr);
  ASSERT_TRUE(roles1->Contains(
      "sys_relation_role",
      Tuple({Value::String("r"), Value::String("source")})));

  // A role change alone touches only the catalog; SyncControlFacts is
  // what re-materialises sys_relation_role and bumps its version, which
  // is exactly when cached dependency-scan snapshots must refresh.
  kb.catalog().SetRole("r", RelationRole::kReference);
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());

  std::shared_ptr<const Database> roles2 = cache.Get(kb, "sys_relation_role");
  ASSERT_NE(roles2, nullptr);
  EXPECT_NE(roles1.get(), roles2.get());
  EXPECT_TRUE(roles2->Contains(
      "sys_relation_role",
      Tuple({Value::String("r"), Value::String("reference")})));
}

TEST(SnapshotCacheTest, CountersReceiveHitsAndMisses) {
  KnowledgeBase kb = MakeKb();
  obs::MetricsRegistry registry;
  obs::Counter* hits = registry.GetCounter("hits", "");
  obs::Counter* misses = registry.GetCounter("misses", "");
  SnapshotCache cache;
  cache.SetCounters(hits, misses);
  (void)cache.Get(kb, "r");
  (void)cache.Get(kb, "r");
  EXPECT_EQ(misses->value(), 1u);
  EXPECT_EQ(hits->value(), 1u);
}

TEST(SnapshotCacheTest, ConcurrentGetsAreConsistent) {
  KnowledgeBase kb = MakeKb();
  SnapshotCache cache;
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  pool.ParallelFor(256, [&](size_t) {
    std::shared_ptr<const Database> s = cache.Get(kb, "r");
    if (s == nullptr || s->FactCount("r") != 2) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  const SnapshotCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 256u);
  EXPECT_EQ(cache.relations(), std::vector<std::string>{"r"});
}

}  // namespace
}  // namespace vada::datalog
