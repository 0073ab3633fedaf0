#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/similarity.h"
#include "common/thread_pool.h"
#include "fusion/dedup.h"
#include "fusion/fuser.h"

namespace vada {
namespace {

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs,
                      const std::vector<std::vector<Value>>& rows) {
  Relation rel(Schema::Untyped(name, attrs));
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(rel.InsertUnchecked(Tuple(row)).ok());
  }
  return rel;
}

Relation Listings() {
  return MakeRelation(
      "r", {"street", "postcode", "price"},
      {
          {Value::String("12 High St"), Value::String("LS1"), Value::Int(100000)},
          {Value::String("12 High  St"), Value::String("LS1"), Value::Int(100500)},
          {Value::String("7 Park Rd"), Value::String("LS2"), Value::Int(200000)},
          {Value::String("99 Mill Ln"), Value::String("LS1"), Value::Int(500000)},
      });
}

TEST(DuplicateDetectorTest, FindsNearDuplicatesWithinBlock) {
  DedupOptions opts;
  opts.blocking_attributes = {"postcode"};
  opts.threshold = 0.85;
  DuplicateDetector detector(opts);
  Relation rel = Listings();
  Result<std::vector<DuplicatePair>> pairs = detector.FindDuplicates(rel);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs.value().size(), 1u);
  EXPECT_EQ(pairs.value()[0].row_a, 0u);
  EXPECT_EQ(pairs.value()[0].row_b, 1u);
  EXPECT_GT(pairs.value()[0].similarity, 0.85);
}

TEST(DuplicateDetectorTest, BlockingPreventsCrossBlockComparison) {
  // Identical rows in different postcodes are never compared.
  Relation rel = MakeRelation(
      "r", {"street", "postcode"},
      {{Value::String("Same St"), Value::String("A")},
       {Value::String("Same St"), Value::String("B")}});
  DedupOptions opts;
  opts.blocking_attributes = {"postcode"};
  opts.threshold = 0.5;
  DuplicateDetector detector(opts);
  Result<std::vector<DuplicatePair>> pairs = detector.FindDuplicates(rel);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs.value().empty());
}

TEST(DuplicateDetectorTest, UnknownBlockingAttributeFails) {
  DedupOptions opts;
  opts.blocking_attributes = {"nope"};
  DuplicateDetector detector(opts);
  EXPECT_FALSE(detector.FindDuplicates(Listings()).ok());
}

TEST(DuplicateDetectorTest, NullBlockingKeysLeftUnpaired) {
  Relation rel = MakeRelation("r", {"street", "postcode"},
                              {{Value::String("A St"), Value::Null()},
                               {Value::String("A St"), Value::Null()}});
  DedupOptions opts;
  opts.blocking_attributes = {"postcode"};
  opts.threshold = 0.1;
  DuplicateDetector detector(opts);
  Result<std::vector<DuplicatePair>> pairs = detector.FindDuplicates(rel);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs.value().empty());
}

TEST(DuplicateDetectorTest, RecordSimilarityNumericCloseness) {
  Relation rel = MakeRelation("r", {"price"},
                              {{Value::Int(100000)}, {Value::Int(100500)},
                               {Value::Int(999)}});
  DuplicateDetector detector;
  // 0.5% price difference sits well inside the 5% similarity band...
  EXPECT_GT(detector.RecordSimilarity(rel, 0, 1), 0.85);
  // ...while a 100x difference scores zero.
  EXPECT_LT(detector.RecordSimilarity(rel, 0, 2), 0.05);
}

TEST(DuplicateDetectorTest, ClusterTransitivity) {
  // a~b and b~c should cluster {a,b,c} even if a!~c directly.
  Relation rel = MakeRelation(
      "r", {"street", "postcode"},
      {{Value::String("12 High Street"), Value::String("LS1")},
       {Value::String("12 High  Street"), Value::String("LS1")},
       {Value::String("12 High   Street"), Value::String("LS1")},
       {Value::String("99 Other Road"), Value::String("LS1")}});
  DedupOptions opts;
  opts.blocking_attributes = {"postcode"};
  opts.threshold = 0.9;
  DuplicateDetector detector(opts);
  Result<DuplicateClusters> clusters = detector.Cluster(rel);
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(clusters.value().num_clusters, 2u);
  EXPECT_EQ(clusters.value().cluster_of[0], clusters.value().cluster_of[1]);
  EXPECT_EQ(clusters.value().cluster_of[1], clusters.value().cluster_of[2]);
  EXPECT_NE(clusters.value().cluster_of[0], clusters.value().cluster_of[3]);
}

// ---------------------------------------------------------------------
// Differential test: FindDuplicates prunes pairs by an upper bound on
// their score. It must return exactly what an exhaustive within-block
// sweep of a plain reference scorer returns: the same pairs, in the same
// order, with bit-identical similarity doubles.

/// Reference cell score, straight from the similarity primitives.
double ReferenceCellScore(const Value& a, const Value& b) {
  if (a == b) return 1.0;
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (da.has_value() && db.has_value()) {
    double scale = std::max({std::fabs(*da), std::fabs(*db), 1e-9});
    double banded = std::fabs(*da - *db) / (0.05 * scale);
    return banded >= 1.0 ? 0.0 : 1.0 - banded;
  }
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    const std::string& sa = a.string_value();
    const std::string& sb = b.string_value();
    if (sa.size() >= 16 || sb.size() >= 16) {
      auto words = [](const std::string& text) {
        std::vector<std::string> out;
        std::string word;
        for (char c : text + " ") {
          if (c != ' ') {
            word += c;
          } else if (!word.empty()) {
            out.push_back(word);
            word.clear();
          }
        }
        return out;
      };
      return TokenJaccard(words(sa), words(sb));
    }
    return JaroWinklerSimilarity(sa, sb);
  }
  return 0.0;
}

/// Reference record score: mean cell score over the attributes both rows
/// hold; 0 below min_shared_fields. Compares every attribute, so the
/// differential cases leave compare_attributes empty.
double ReferenceRecordScore(const Relation& rel, size_t row_a, size_t row_b,
                            const DedupOptions& opts) {
  const size_t arity = rel.schema().arity();
  const Tuple& a = rel.rows()[row_a];
  const Tuple& b = rel.rows()[row_b];
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < arity; ++i) {
    if (a.at(i).is_null() || b.at(i).is_null()) continue;
    sum += ReferenceCellScore(a.at(i), b.at(i));
    ++counted;
  }
  if (counted == 0 || counted < std::min(opts.min_shared_fields, arity)) {
    return 0.0;
  }
  return sum / static_cast<double>(counted);
}

struct ReferenceResult {
  std::vector<DuplicatePair> pairs;
  size_t considered = 0;
  size_t truncated = 0;
};

/// Every pair of every block (blocks in key order, pairs in row order,
/// at most max_pairs_per_block per block), scored in full.
ReferenceResult ReferenceSweep(const Relation& rel, const DedupOptions& opts) {
  const size_t key = *rel.schema().AttributeIndex("block");
  std::map<std::string, std::vector<size_t>> blocks;
  for (size_t r = 0; r < rel.size(); ++r) {
    const Value& v = rel.rows()[r].at(key);
    if (!v.is_null()) blocks[v.ToString() + '\x1f'].push_back(r);
  }
  ReferenceResult out;
  for (const auto& [k, rows] : blocks) {
    size_t budget = opts.max_pairs_per_block;
    bool cut = false;
    for (size_t i = 0; i < rows.size() && !cut; ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        if (budget == 0) {
          cut = true;
          break;
        }
        --budget;
        ++out.considered;
        double sim = ReferenceRecordScore(rel, rows[i], rows[j], opts);
        if (sim >= opts.threshold) {
          out.pairs.push_back(DuplicatePair{rows[i], rows[j], sim});
        }
      }
    }
    if (cut) ++out.truncated;
  }
  return out;
}

/// Shape of a seeded random relation. Values come from small pools so
/// that many pairs land near any threshold:
///   block  - blocking key, occasionally null;
///   words  - word lists from a tiny vocabulary in random order with
///            single or double spaces, so different strings often have
///            equal word sets (Jaccard exactly 1);
///   name   - strings of 14 to 17 chars around the 16-char switch
///            between Jaro-Winkler and word sets;
///   price  - numbers on both sides of the 5% band edge, int and double,
///            and the odd infinity or NaN (their cells score 1 against
///            an equal infinity and NaN otherwise);
///   flag   - bools, with the odd int or string (mismatched types);
///   cN     - `extra` more small mixed columns.
struct RandomShape {
  size_t rows = 40;
  size_t blocks = 3;
  size_t extra = 0;
  double null_rate = 0.1;
};

Relation RandomRelation(uint64_t seed, const RandomShape& shape) {
  std::vector<std::string> attrs = {"block", "words", "name", "price",
                                    "flag"};
  for (size_t i = 0; i < shape.extra; ++i) {
    attrs.push_back("c" + std::to_string(i));
  }
  Relation rel(Schema::Untyped("random", attrs));
  Rng rng(seed);
  const std::vector<std::string> vocab = {"red", "brick", "house", "near",
                                          "park", "#7"};
  const std::vector<std::string> names = {
      "Abbey Road 12a",     // 14
      "Abbey Road 12ab",    // 15
      "Abbey Road 12abc",   // 16
      "Abbey  Road 12ab",   // 16, same words as the 15-char name
      "Abbey Roda 12ab",    // 15
      "Abbey Road 12abcd",  // 17
  };
  const double base = 1000.0 + static_cast<double>(rng.Index(5));
  const double edge = base / 0.95;  // |a - b| / (0.05 * b) == 1
  const std::vector<Value> prices = {
      Value::Double(base),
      Value::Int(static_cast<int64_t>(base)),
      Value::Double(edge),
      Value::Double(std::nextafter(edge, 0.0)),
      Value::Double(std::nextafter(edge, 1e9)),
      Value::Double(base * 1.01),
      Value::Double(base * 1.03),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
  };
  auto maybe_null = [&](Value v) {
    return rng.Bernoulli(shape.null_rate) ? Value::Null() : std::move(v);
  };
  for (size_t r = 0; r < shape.rows; ++r) {
    std::vector<Value> row;
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value::String("k" + std::to_string(
                                                rng.Index(shape.blocks))));
    std::vector<std::string> words(vocab.begin(),
                                   vocab.begin() + 2 + rng.Index(3));
    rng.Shuffle(&words);
    std::string text;
    for (const std::string& w : words) {
      if (!text.empty()) text += rng.Bernoulli(0.3) ? "  " : " ";
      text += w;
    }
    row.push_back(maybe_null(Value::String(text)));
    row.push_back(maybe_null(Value::String(rng.Choice(names))));
    row.push_back(maybe_null(rng.Choice(prices)));
    Value flag = Value::Bool(rng.Bernoulli(0.5));
    if (rng.Bernoulli(0.1)) flag = Value::Int(1);
    if (rng.Bernoulli(0.1)) flag = Value::String("true");
    row.push_back(maybe_null(flag));
    for (size_t i = 0; i < shape.extra; ++i) {
      switch (rng.Index(3)) {
        case 0:
          row.push_back(maybe_null(Value::Int(rng.UniformInt(20, 21))));
          break;
        case 1:
          row.push_back(maybe_null(Value::String(rng.Bernoulli(0.5) ? "ab"
                                                                    : "abc")));
          break;
        default:
          row.push_back(Value::Null());
      }
    }
    EXPECT_TRUE(rel.InsertUnchecked(Tuple(std::move(row))).ok());
  }
  return rel;
}

/// A 3-worker pool shared by the pooled arms below.
ThreadPool& TestPool() {
  static ThreadPool pool(3);
  return pool;
}

/// FindDuplicates and Cluster with a 3-worker pool repeat the inline run:
/// the same pairs in the same order with the same similarity bits, every
/// DedupStats field, and the same clusters.
void ExpectPooledMatchesInline(const Relation& rel, const DedupOptions& opts) {
  DuplicateDetector detector(opts);
  DedupStats want_stats;
  DedupStats got_stats;
  Result<std::vector<DuplicatePair>> want =
      detector.FindDuplicates(rel, &want_stats);
  Result<std::vector<DuplicatePair>> got =
      detector.FindDuplicates(rel, &got_stats, &TestPool());
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) return;
  ASSERT_EQ(got.value().size(), want.value().size());
  for (size_t i = 0; i < got.value().size(); ++i) {
    const DuplicatePair& g = got.value()[i];
    const DuplicatePair& w = want.value()[i];
    EXPECT_EQ(g.row_a, w.row_a) << "pair " << i;
    EXPECT_EQ(g.row_b, w.row_b) << "pair " << i;
    EXPECT_EQ(std::memcmp(&g.similarity, &w.similarity, sizeof(double)), 0)
        << "pair " << i;
  }
  EXPECT_EQ(got_stats.pairs_considered, want_stats.pairs_considered);
  EXPECT_EQ(got_stats.pairs_pruned, want_stats.pairs_pruned);
  EXPECT_EQ(got_stats.pairs_scored, want_stats.pairs_scored);
  EXPECT_EQ(got_stats.pairs_matched, want_stats.pairs_matched);
  EXPECT_EQ(got_stats.blocks_truncated, want_stats.blocks_truncated);
  Result<DuplicateClusters> want_clusters = detector.Cluster(rel);
  Result<DuplicateClusters> got_clusters =
      detector.Cluster(rel, nullptr, &TestPool());
  ASSERT_TRUE(want_clusters.ok());
  ASSERT_TRUE(got_clusters.ok());
  EXPECT_EQ(got_clusters.value().cluster_of, want_clusters.value().cluster_of);
  EXPECT_EQ(got_clusters.value().num_clusters,
            want_clusters.value().num_clusters);
}

/// Runs FindDuplicates and the reference sweep and compares them pair by
/// pair, bitwise; checks the stats against the reference's counts, and
/// the pooled run against the inline one. Returns the number of matched
/// pairs.
size_t ExpectMatchesReference(const Relation& rel, const DedupOptions& opts) {
  ExpectPooledMatchesInline(rel, opts);
  DuplicateDetector detector(opts);
  DedupStats stats;
  Result<std::vector<DuplicatePair>> got = detector.FindDuplicates(rel, &stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!got.ok()) return 0;
  ReferenceResult want = ReferenceSweep(rel, opts);
  EXPECT_EQ(got.value().size(), want.pairs.size());
  for (size_t i = 0; i < got.value().size() && i < want.pairs.size(); ++i) {
    const DuplicatePair& g = got.value()[i];
    const DuplicatePair& w = want.pairs[i];
    EXPECT_EQ(g.row_a, w.row_a) << "pair " << i;
    EXPECT_EQ(g.row_b, w.row_b) << "pair " << i;
    EXPECT_EQ(g.similarity, w.similarity)
        << "pair " << i << " (" << g.row_a << ", " << g.row_b << ")";
  }
  EXPECT_EQ(stats.pairs_considered, want.considered);
  EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored, stats.pairs_considered);
  EXPECT_EQ(stats.pairs_matched, want.pairs.size());
  EXPECT_LE(stats.pairs_matched, stats.pairs_scored);
  EXPECT_EQ(stats.blocks_truncated, want.truncated);
  return want.pairs.size();
}

/// Every distinct pair score of `rel`'s blocks, for thresholds that land
/// exactly on a score.
std::vector<double> ObservedScores(const Relation& rel,
                                   const DedupOptions& opts) {
  DedupOptions all = opts;
  all.threshold = -1.0;
  std::vector<double> scores;
  for (const DuplicatePair& p : ReferenceSweep(rel, all).pairs) {
    if (p.similarity > 0.0) scores.push_back(p.similarity);
  }
  std::sort(scores.begin(), scores.end());
  scores.erase(std::unique(scores.begin(), scores.end()), scores.end());
  return scores;
}

DedupOptions BlockedOptions() {
  DedupOptions opts;
  opts.blocking_attributes = {"block"};
  return opts;
}

TEST(DedupDifferentialTest, PrunedDetectionEqualsExhaustiveSweep) {
  size_t matched = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Relation rel = RandomRelation(seed, RandomShape());
    for (size_t shared : {1u, 3u, 7u}) {
      DedupOptions opts = BlockedOptions();
      opts.min_shared_fields = shared;
      for (double threshold : {0.0, 0.5, 0.8, 0.95, 1.0}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " shared " +
                     std::to_string(shared) + " threshold " +
                     std::to_string(threshold));
        opts.threshold = threshold;
        matched += ExpectMatchesReference(rel, opts);
      }
    }
  }
  EXPECT_GT(matched, 0u);
}

// Thresholds equal to a pair's own score: that pair must still match, so
// the bound may not drop a pair whose exact mean equals the threshold.
TEST(DedupDifferentialTest, ThresholdsOnObservedScores) {
  size_t on_threshold = 0;
  for (uint64_t seed = 100; seed < 140; ++seed) {
    RandomShape shape;
    shape.null_rate = 0.15;
    Relation rel = RandomRelation(seed, shape);
    for (size_t shared : {1u, 3u}) {
      DedupOptions opts = BlockedOptions();
      opts.min_shared_fields = shared;
      std::vector<double> scores = ObservedScores(rel, opts);
      for (size_t i = 0; i < scores.size(); i += 3) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " threshold " +
                     std::to_string(scores[i]));
        opts.threshold = scores[i];
        EXPECT_GT(ExpectMatchesReference(rel, opts), 0u);
        ++on_threshold;
      }
    }
  }
  EXPECT_GT(on_threshold, 100u);
}

// A pair whose exact mean equals the threshold, where the bound's sum
// (free cells first, then 1 for the pending word cell) rounds one ulp
// below threshold * counted: only the bound's slack keeps it. The word
// cell is a Jaccard of 1 (same words, different order); the prices were
// found by a search over small integers for that rounding.
TEST(DedupDifferentialTest, BoundSlackKeepsAPairExactlyOnTheThreshold) {
  Relation rel = MakeRelation(
      "r", {"block", "words", "p1", "p2"},
      {{Value::String("k"), Value::String("red brick house near"),
        Value::Int(100), Value::Int(108)},
       {Value::String("k"), Value::String("near red brick house"),
        Value::Int(102), Value::Int(112)}});
  DedupOptions opts = BlockedOptions();
  opts.compare_attributes = {"words", "p1", "p2"};
  DuplicateDetector exact(opts);
  opts.threshold = exact.RecordSimilarity(rel, 0, 1);
  DedupStats stats;
  Result<std::vector<DuplicatePair>> pairs =
      DuplicateDetector(opts).FindDuplicates(rel, &stats);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs.value().size(), 1u);
  EXPECT_EQ(pairs.value()[0].similarity, opts.threshold);
  EXPECT_EQ(stats.pairs_pruned, 0u);
}

// Nulls thin out the shared attributes: with min_shared_fields above the
// number of attributes a pair shares, it scores 0 however similar.
TEST(DedupDifferentialTest, NullsAgainstMinSharedFields) {
  for (uint64_t seed = 200; seed < 210; ++seed) {
    for (double null_rate : {0.3, 0.6}) {
      RandomShape shape;
      shape.null_rate = null_rate;
      Relation rel = RandomRelation(seed, shape);
      for (size_t shared : {1u, 3u, 7u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " shared " +
                     std::to_string(shared));
        DedupOptions opts = BlockedOptions();
        opts.min_shared_fields = shared;
        opts.threshold = 0.6;
        ExpectMatchesReference(rel, opts);
      }
    }
  }
}

TEST(DedupDifferentialTest, BlockCapTruncatesLikeTheSweep) {
  RandomShape shape;
  shape.rows = 60;
  shape.blocks = 2;
  for (uint64_t seed = 300; seed < 305; ++seed) {
    Relation rel = RandomRelation(seed, shape);
    for (size_t cap : {0u, 1u, 7u, 100u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
                   std::to_string(cap));
      DedupOptions opts = BlockedOptions();
      opts.threshold = 0.5;
      opts.max_pairs_per_block = cap;
      ExpectMatchesReference(rel, opts);
      DedupStats stats;
      ASSERT_TRUE(DuplicateDetector(opts).FindDuplicates(rel, &stats).ok());
      EXPECT_GT(stats.blocks_truncated, 0u);
      EXPECT_LE(stats.pairs_considered, 2 * cap);
    }
  }
}

// Forty compared attributes: wider than any small fixed-size scratch
// array a scorer might keep per pair.
TEST(DedupDifferentialTest, FortyComparedAttributes) {
  RandomShape shape;
  shape.extra = 35;
  for (uint64_t seed = 400; seed < 404; ++seed) {
    Relation rel = RandomRelation(seed, shape);
    ASSERT_EQ(rel.schema().arity(), 40u);
    for (size_t shared : {1u, 7u}) {
      DedupOptions opts = BlockedOptions();
      opts.min_shared_fields = shared;
      for (double threshold : {0.5, 0.7}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " threshold " +
                     std::to_string(threshold));
        opts.threshold = threshold;
        ExpectMatchesReference(rel, opts);
      }
      std::vector<double> scores = ObservedScores(rel, opts);
      for (size_t i = 0; i < scores.size(); i += 7) {
        opts.threshold = scores[i];
        EXPECT_GT(ExpectMatchesReference(rel, opts), 0u);
      }
    }
  }
}

// The pool arm on the shapes where a block-per-task merge could go wrong:
// null blocking keys, blocks of one row, blocks cut short by the pair cap,
// and unblocked input (a single task).
TEST(DedupDifferentialTest, PooledDetectionEqualsInline) {
  size_t matched = 0;
  for (uint64_t seed = 600; seed < 612; ++seed) {
    for (size_t blocks : {1u, 4u, 30u, 90u}) {
      RandomShape shape;
      shape.rows = 90;
      shape.blocks = blocks;
      shape.null_rate = 0.2;
      Relation rel = RandomRelation(seed, shape);
      for (size_t cap : {0u, 1u, 7u, 100000u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " blocks " +
                     std::to_string(blocks) + " cap " + std::to_string(cap));
        DedupOptions opts = BlockedOptions();
        opts.threshold = 0.5;
        opts.max_pairs_per_block = cap;
        ExpectPooledMatchesInline(rel, opts);
        // Keys from a column that is null in a fifth of the rows.
        opts.blocking_attributes = {"name"};
        ExpectPooledMatchesInline(rel, opts);
        opts.blocking_attributes.clear();
        ExpectPooledMatchesInline(rel, opts);
        DedupStats stats;
        Result<std::vector<DuplicatePair>> pairs =
            DuplicateDetector(opts).FindDuplicates(rel, &stats, &TestPool());
        ASSERT_TRUE(pairs.ok());
        matched += stats.pairs_matched;
      }
    }
  }
  EXPECT_GT(matched, 0u);
}

// A memo reuses exactly the blocks whose rows are unchanged and in the
// same order, wherever they now sit: the pairs equal a detection without
// it, bit for bit, and only the changed blocks are scored.
TEST(DedupDifferentialTest, MemoReusesOnlyUnchangedBlocks) {
  size_t reused = 0;
  for (uint64_t seed = 700; seed < 712; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomShape shape;
    shape.rows = 90;
    shape.blocks = 30;
    Relation before = RandomRelation(seed, shape);
    // A few new rows, spread through the relation, shift every position
    // after them and change the blocks they land in.
    Relation extra = RandomRelation(seed + 1000, shape);
    Relation after(before.schema());
    for (size_t r = 0; r < before.size(); ++r) {
      if (r % 30 == 7) {
        ASSERT_TRUE(after.InsertUnchecked(extra.rows()[r]).ok());
      }
      ASSERT_TRUE(after.InsertUnchecked(before.rows()[r]).ok());
    }
    DedupOptions opts = BlockedOptions();
    opts.threshold = 0.5;
    DuplicateDetector detector(opts);
    DedupMemo memo;
    ASSERT_TRUE(detector.FindDuplicates(before, nullptr, nullptr, &memo).ok());
    memo.Commit(before);

    DedupStats plain;
    Result<std::vector<DuplicatePair>> want =
        detector.FindDuplicates(after, &plain);
    DedupStats stats;
    Result<std::vector<DuplicatePair>> got =
        detector.FindDuplicates(after, &stats, &TestPool(), &memo);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), want.value().size());
    for (size_t i = 0; i < got.value().size(); ++i) {
      const DuplicatePair& g = got.value()[i];
      const DuplicatePair& w = want.value()[i];
      EXPECT_EQ(g.row_a, w.row_a) << "pair " << i;
      EXPECT_EQ(g.row_b, w.row_b) << "pair " << i;
      EXPECT_EQ(std::memcmp(&g.similarity, &w.similarity, sizeof(double)), 0)
          << "pair " << i;
    }
    EXPECT_EQ(stats.blocks_scored + stats.blocks_reused, plain.blocks_scored);
    // Scored: the at most 3 blocks the new rows joined, and blocks with a
    // row that equals nothing, itself included (a NaN price).
    std::map<std::string, std::pair<size_t, bool>> blocks;
    for (const Tuple& row : after.rows()) {
      if (row.at(0).is_null()) continue;
      auto& [size, has_nan] = blocks[row.at(0).ToString()];
      ++size;
      has_nan = has_nan || !(row == row);
    }
    size_t nan_blocks = 0;
    for (const auto& [key, block] : blocks) {
      if (block.first > 1 && block.second) ++nan_blocks;
    }
    EXPECT_LE(stats.blocks_scored, 3u + nan_blocks);
    EXPECT_LE(stats.pairs_considered, plain.pairs_considered);
    reused += stats.blocks_reused;

    // Other options reuse nothing.
    DedupOptions looser = opts;
    looser.threshold = 0.4;
    DedupMemo committed;
    ASSERT_TRUE(detector.FindDuplicates(before, nullptr, nullptr, &committed)
                    .ok());
    committed.Commit(before);
    DedupStats other;
    ASSERT_TRUE(DuplicateDetector(looser)
                    .FindDuplicates(before, &other, nullptr, &committed)
                    .ok());
    EXPECT_EQ(other.blocks_reused, 0u);
  }
  EXPECT_GT(reused, 0u);
}

TEST(DedupDifferentialTest, RecordSimilarityIsTheUnprunedScore) {
  for (uint64_t seed = 500; seed < 504; ++seed) {
    Relation rel = RandomRelation(seed, RandomShape());
    for (size_t shared : {1u, 3u, 7u}) {
      DedupOptions opts = BlockedOptions();
      opts.min_shared_fields = shared;
      DuplicateDetector detector(opts);
      for (size_t a = 0; a < rel.size(); ++a) {
        for (size_t b = 0; b < rel.size(); ++b) {
          double got = detector.RecordSimilarity(rel, a, b);
          double want = ReferenceRecordScore(rel, a, b, opts);
          // NaN (a NaN or infinite price against a finite one) on both
          // sides counts as equal; anything else must match exactly.
          if (std::isnan(got) && std::isnan(want)) continue;
          EXPECT_EQ(got, want) << a << ", " << b;
        }
      }
    }
  }
}

TEST(FuserTest, CollapsesClustersAndResolvesConflicts) {
  // Rows are distinct (set semantics) but clustered together; price 100
  // holds the 2-vs-1 majority.
  Relation rel = MakeRelation(
      "r", {"street", "price"},
      {{Value::String("12 High St"), Value::Int(100)},
       {Value::String("12 High  St"), Value::Int(100)},
       {Value::String("12 High St."), Value::Int(200)}});
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 0, 0};
  clusters.num_clusters = 1;
  Fuser fuser;
  FusionStats stats;
  Result<Relation> fused = fuser.Fuse(rel, clusters, "out", &stats);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused.value().size(), 1u);
  EXPECT_GE(stats.conflicts_resolved, 1u);
  EXPECT_EQ(fused.value().rows()[0].at(1), Value::Int(100));
}

TEST(FuserTest, WeightedVotesBreakTies) {
  Relation rel = MakeRelation("r", {"v"},
                              {{Value::Int(1)}, {Value::Int(2)}});
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 0};
  clusters.num_clusters = 1;
  FusionOptions opts;
  opts.row_weights = {0.2, 0.9};  // second row more trusted
  Fuser fuser(opts);
  Result<Relation> fused = fuser.Fuse(rel, clusters, "out");
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused.value().rows()[0].at(0), Value::Int(2));
}

TEST(FuserTest, EqualVotesGoToTheFirstValueInValueOrder) {
  // Row order must not matter: each column's tie goes to the value that
  // sorts first (int 1 before int 2, "a" before "b").
  Relation rel = MakeRelation("r", {"n", "s"},
                              {{Value::Int(2), Value::String("b")},
                               {Value::Int(1), Value::String("a")},
                               {Value::Int(2), Value::String("a")},
                               {Value::Int(1), Value::String("b")}});
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 0, 0, 0};
  clusters.num_clusters = 1;
  FusionStats stats;
  Result<Relation> fused = Fuser().Fuse(rel, clusters, "out", &stats);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), 1u);
  EXPECT_EQ(fused.value().rows()[0].at(0), Value::Int(1));
  EXPECT_EQ(fused.value().rows()[0].at(1), Value::String("a"));
  EXPECT_EQ(stats.conflicts_resolved, 2u);
  // Weighted: 0.5 + 0.25 for int 2 ties 0.75 for int 1.
  FusionOptions opts;
  opts.row_weights = {0.5, 0.75, 0.25, 0.0};
  Result<Relation> weighted = Fuser(opts).Fuse(rel, clusters, "out");
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted.value().rows()[0].at(0), Value::Int(1));
}

// Votes add up per equal value (Value equality), so NaN, which equals
// nothing, never takes over the votes of other values.
TEST(FuserTest, NaNNeverAbsorbsOtherVotes) {
  Relation rel = MakeRelation(
      "r", {"id", "v"},
      {{Value::Int(1), Value::Double(std::numeric_limits<double>::quiet_NaN())},
       {Value::Int(2), Value::Double(1.0)},
       {Value::Int(3), Value::Double(2.0)},
       {Value::Int(4), Value::Double(1.0)}});
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 0, 0, 0};
  clusters.num_clusters = 1;
  Result<Relation> fused = Fuser().Fuse(rel, clusters, "out");
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), 1u);
  EXPECT_EQ(fused.value().rows()[0].at(1), Value::Double(1.0));
}

TEST(FuserTest, NullsFilledFromClusterMembers) {
  Relation rel = MakeRelation(
      "r", {"street", "crimerank"},
      {{Value::String("High St"), Value::Null()},
       {Value::String("High St"), Value::Int(7)}});
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 0};
  clusters.num_clusters = 1;
  Fuser fuser;
  FusionStats stats;
  Result<Relation> fused = fuser.Fuse(rel, clusters, "out", &stats);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), 1u);
  EXPECT_EQ(fused.value().rows()[0].at(1), Value::Int(7));
  EXPECT_EQ(stats.nulls_filled, 1u);
}

TEST(FuserTest, SingletonClustersPassThrough) {
  Relation rel = Listings();
  DuplicateClusters clusters;
  clusters.cluster_of = {0, 1, 2, 3};
  clusters.num_clusters = 4;
  Fuser fuser;
  Result<Relation> fused = fuser.Fuse(rel, clusters, "out");
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused.value().size(), 4u);
}

TEST(FuserTest, SizeMismatchRejected) {
  Relation rel = Listings();
  DuplicateClusters clusters;
  clusters.cluster_of = {0};
  clusters.num_clusters = 1;
  Fuser fuser;
  EXPECT_FALSE(fuser.Fuse(rel, clusters, "out").ok());
  FusionOptions opts;
  opts.row_weights = {1.0};
  DuplicateClusters ok_clusters;
  ok_clusters.cluster_of = {0, 1, 2, 3};
  ok_clusters.num_clusters = 4;
  Fuser weighted(opts);
  EXPECT_FALSE(weighted.Fuse(rel, ok_clusters, "out").ok());
}

TEST(FusionEndToEndTest, DedupPlusFuseShrinksOverlap) {
  // Two portals listing overlapping properties with slight noise.
  Relation rel = MakeRelation(
      "r", {"street", "postcode", "price", "crimerank"},
      {
          {Value::String("12 High St"), Value::String("LS1"), Value::Int(100000),
           Value::Null()},
          {Value::String("12 High St"), Value::String("LS1"), Value::Int(100500),
           Value::Int(3)},
          {Value::String("7 Park Rd"), Value::String("LS2"), Value::Int(200000),
           Value::Null()},
      });
  DedupOptions opts;
  opts.blocking_attributes = {"postcode"};
  opts.threshold = 0.8;
  DuplicateDetector detector(opts);
  Result<DuplicateClusters> clusters = detector.Cluster(rel);
  ASSERT_TRUE(clusters.ok());
  Fuser fuser;
  Result<Relation> fused = fuser.Fuse(rel, clusters.value(), "out");
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), 2u);
  // The fused High St row inherited the crimerank from its duplicate.
  for (const Tuple& row : fused.value().rows()) {
    if (row.at(0) == Value::String("12 High St")) {
      EXPECT_EQ(row.at(3), Value::Int(3));
    }
  }
}

}  // namespace
}  // namespace vada
