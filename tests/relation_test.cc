#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kb/relation.h"
#include "kb/schema.h"

namespace vada {
namespace {

Schema PropertySchema() {
  return Schema("property", {{"street", AttributeType::kString},
                             {"price", AttributeType::kInt},
                             {"score", AttributeType::kDouble}});
}

TEST(SchemaTest, UntypedFactory) {
  Schema s = Schema::Untyped("r", {"a", "b"});
  EXPECT_EQ(s.relation_name(), "r");
  ASSERT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.attributes()[0].type, AttributeType::kAny);
}

TEST(SchemaTest, AttributeIndex) {
  Schema s = PropertySchema();
  EXPECT_EQ(*s.AttributeIndex("price"), 1u);
  EXPECT_FALSE(s.AttributeIndex("missing").has_value());
}

TEST(SchemaTest, ValidateRejectsDuplicates) {
  Schema s = Schema::Untyped("r", {"a", "a"});
  EXPECT_FALSE(s.Validate().ok());
  EXPECT_FALSE(Schema::Untyped("", {"a"}).Validate().ok());
  EXPECT_TRUE(PropertySchema().Validate().ok());
}

TEST(SchemaTest, TypeCompatibility) {
  EXPECT_TRUE(IsCompatible(AttributeType::kInt, ValueType::kInt));
  EXPECT_TRUE(IsCompatible(AttributeType::kInt, ValueType::kNull));
  EXPECT_FALSE(IsCompatible(AttributeType::kInt, ValueType::kString));
  EXPECT_TRUE(IsCompatible(AttributeType::kDouble, ValueType::kInt));
  EXPECT_TRUE(IsCompatible(AttributeType::kAny, ValueType::kString));
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(PropertySchema());
  Tuple t({Value::String("High St"), Value::Int(100000), Value::Double(0.5)});
  bool added = false;
  ASSERT_TRUE(r.Insert(t, &added).ok());
  EXPECT_TRUE(added);
  ASSERT_TRUE(r.Insert(t, &added).ok());
  EXPECT_FALSE(added);
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertChecksArityAndTypes) {
  Relation r(PropertySchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1), Value::Int(2), Value::Double(3)}))
                   .ok());  // street must be string
  // Nulls always allowed.
  EXPECT_TRUE(
      r.Insert(Tuple({Value::Null(), Value::Null(), Value::Null()})).ok());
}

TEST(RelationTest, EraseAndContains) {
  Relation r(Schema::Untyped("r", {"a"}));
  Tuple t({Value::Int(1)});
  ASSERT_TRUE(r.Insert(t).ok());
  EXPECT_TRUE(r.Contains(t));
  EXPECT_TRUE(r.Erase(t));
  EXPECT_FALSE(r.Contains(t));
  EXPECT_FALSE(r.Erase(t));
  EXPECT_EQ(r.size(), 0u);
}

TEST(RelationTest, ProjectReordersColumns) {
  Relation r(Schema::Untyped("r", {"a", "b"}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  Result<Relation> p = r.Project({"b", "a"}, "p");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().schema().AttributeNames(),
            (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(p.value().rows()[0], Tuple({Value::Int(2), Value::Int(1)}));
}

TEST(RelationTest, ProjectDeduplicates) {
  Relation r(Schema::Untyped("r", {"a", "b"}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(3)})).ok());
  Result<Relation> p = r.Project({"a"}, "p");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().size(), 1u);
}

TEST(RelationTest, ProjectUnknownAttributeFails) {
  Relation r(Schema::Untyped("r", {"a"}));
  EXPECT_FALSE(r.Project({"zz"}, "p").ok());
}

TEST(RelationTest, SelectEquals) {
  Relation r(Schema::Untyped("r", {"a", "b"}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::String("x")})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(2), Value::String("y")})).ok());
  Result<Relation> sel = r.SelectEquals("b", Value::String("y"));
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel.value().size(), 1u);
  EXPECT_EQ(sel.value().rows()[0].at(0), Value::Int(2));
}

TEST(RelationTest, NonNullFraction) {
  Relation r(Schema::Untyped("r", {"a"}));
  EXPECT_DOUBLE_EQ(r.NonNullFraction("a").value(), 1.0);  // vacuous
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Null()})).ok());
  EXPECT_DOUBLE_EQ(r.NonNullFraction("a").value(), 0.5);
  EXPECT_FALSE(r.NonNullFraction("zz").ok());
}

TEST(RelationTest, SortedRowsDeterministic) {
  Relation r(Schema::Untyped("r", {"a"}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(3)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(2)})).ok());
  std::vector<Tuple> sorted = r.SortedRows();
  EXPECT_EQ(sorted[0].at(0), Value::Int(1));
  EXPECT_EQ(sorted[2].at(0), Value::Int(3));
}

/// Reference model of a Relation: its rows in insertion order plus the
/// set of rows.
struct RowModel {
  std::vector<Tuple> rows;
  std::set<Tuple> set;

  bool Insert(const Tuple& t) {
    if (!set.insert(t).second) return false;
    rows.push_back(t);
    return true;
  }
  bool Erase(const Tuple& t) {
    if (set.erase(t) == 0) return false;
    rows.erase(std::find(rows.begin(), rows.end(), t));
    return true;
  }
};

/// Rows, order, size and membership of `r` match `model`; `probes` are
/// looked up in both. Rows are one int each (the comparison below reads
/// the ints directly: it runs after every operation).
void ExpectMatches(const Relation& r, const RowModel& model,
                   const std::vector<Tuple>& probes) {
  ASSERT_EQ(r.size(), model.rows.size());
  ASSERT_EQ(r.empty(), model.rows.empty());
  for (size_t i = 0; i < model.rows.size(); ++i) {
    if (r.rows()[i].at(0).int_value() != model.rows[i].at(0).int_value()) {
      FAIL() << "row " << i << ": " << r.rows()[i].ToString() << " vs "
             << model.rows[i].ToString();
    }
  }
  for (const Tuple& t : probes) {
    ASSERT_EQ(r.Contains(t), model.set.count(t) > 0) << t.ToString();
  }
}

TEST(RelationTest, RowIndexMatchesReferenceModel) {
  const Schema schema("r", {{"k", AttributeType::kInt}});
  std::mt19937_64 rng(20261018);
  auto pick = [&rng](uint64_t n) { return rng() % n; };

  Relation r(schema);
  RowModel model;
  Relation copy(schema);  // an independent copy and the model it had
  RowModel copy_model;
  size_t rejected = 0;
  size_t erased_front = 0, erased_middle = 0, erased_back = 0;
  size_t max_size = 0;
  for (int op = 0; op < 18000; ++op) {
    // Keys from a range that widens with the relation: most inserts are
    // new while duplicates keep coming.
    const uint64_t key_range = 16 * model.rows.size() + 16;
    const Tuple row({Value::Int(static_cast<int64_t>(pick(key_range)))});
    const uint64_t dice = pick(100);
    if (op == 16000) {
      r.Clear();
      model = RowModel();
    } else if (dice < 50) {
      bool added = false;
      ASSERT_TRUE(r.Insert(row, &added).ok());
      EXPECT_EQ(added, model.Insert(row));
    } else if (dice < 80) {
      bool added = false;
      ASSERT_TRUE(r.InsertUnchecked(row, &added).ok());
      EXPECT_EQ(added, model.Insert(row));
    } else if (dice < 83) {
      // A type-checked insert of a string, and any insert of the wrong
      // arity, is rejected and changes nothing.
      const Tuple bad({Value::String("k")});
      EXPECT_FALSE(r.Insert(bad).ok());
      EXPECT_FALSE(r.InsertUnchecked(Tuple({Value::Int(1), Value::Int(2)}))
                       .ok());
      EXPECT_FALSE(r.Contains(bad));
      ++rejected;
    } else if (dice < 90 && !model.rows.empty()) {
      // Erase a present row at the front, in the middle or at the back.
      const size_t n = model.rows.size();
      const uint64_t where = pick(3);
      const size_t i = where == 0 ? 0 : where == 1 ? pick(n) : n - 1;
      ++(i == 0 ? erased_front : i == n - 1 ? erased_back : erased_middle);
      const Tuple victim = model.rows[i];
      EXPECT_TRUE(r.Erase(victim));
      EXPECT_TRUE(model.Erase(victim));
      EXPECT_FALSE(r.Contains(victim));
    } else if (dice < 98) {
      EXPECT_EQ(r.Erase(row), model.Erase(row));  // mostly absent
    } else {
      // Copies, moves and self-assignment; later ops check that `copy`
      // keeps its rows while `r` moves on.
      switch (pick(4)) {
        case 0:
          copy = r;
          break;
        case 1: {
          Relation constructed(r);
          copy = std::move(constructed);
          break;
        }
        case 2: {
          Relation moved(std::move(copy));
          copy = r;  // assignment into a moved-from relation
          Relation back(std::move(moved));
          break;
        }
        default: {
          Relation& alias = r;
          r = alias;
          copy = r;
          break;
        }
      }
      copy_model = model;
    }
    max_size = std::max(max_size, model.rows.size());
    std::vector<Tuple> probes = {
        row, Tuple({Value::Int(static_cast<int64_t>(pick(key_range)))})};
    if (!model.rows.empty()) {
      probes.push_back(model.rows[pick(model.rows.size())]);
    }
    ExpectMatches(r, model, probes);
    ExpectMatches(copy, copy_model, probes);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(max_size, 10000u);  // grew past several rehashes
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(erased_front, 0u);
  EXPECT_GT(erased_middle, 0u);
  EXPECT_GT(erased_back, 0u);
}

TEST(RelationTest, SameRowsIgnoresOrder) {
  Relation a(Schema::Untyped("a", {"x"}));
  Relation b(Schema::Untyped("b", {"x"}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.Insert(Tuple({Value::Int(i)})).ok());
    ASSERT_TRUE(b.Insert(Tuple({Value::Int(99 - i)})).ok());
  }
  EXPECT_TRUE(a.SameRows(b));
  EXPECT_TRUE(b.SameRows(a));
  ASSERT_TRUE(b.Erase(Tuple({Value::Int(5)})));
  EXPECT_FALSE(a.SameRows(b));
  ASSERT_TRUE(b.Insert(Tuple({Value::Int(100)})).ok());
  EXPECT_FALSE(a.SameRows(b));  // same size, one row differs
  EXPECT_TRUE(Relation().SameRows(Relation(Schema::Untyped("e", {"x"}))));
}

TEST(RelationTest, TypeCheckReportsRowsInsertedUnchecked) {
  Relation r(Schema("r", {{"a", AttributeType::kInt}}));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1)})).ok());
  EXPECT_TRUE(r.TypeCheck().ok());
  ASSERT_TRUE(r.InsertUnchecked(Tuple({Value::String("y")})).ok());
  EXPECT_EQ(r.TypeCheck().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vada
