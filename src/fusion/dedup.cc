#include "fusion/dedup.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/similarity.h"
#include "common/thread_pool.h"

namespace vada {

namespace {

/// Strings at least this long are compared as word sets: long strings
/// (descriptions) share templates, and character similarity over-scores
/// them.
constexpr size_t kLongString = 16;

/// Relative slack in the pruning bound; see PairScorer::Score.
constexpr double kBoundSlack = 1e-9;

/// Record-pair scoring over per-row features. FindDuplicates compares
/// every row of a block against every other, so anything derivable from
/// one row alone (numeric coercion, word sets) is computed at most once
/// per row, not once per pair.
///
/// A pair's score is the mean of its cell scores over the attributes
/// where both rows are non-null; every cell score lies in [0, 1]. Null,
/// equal, numeric and mismatched-type cells cost next to nothing; cells
/// holding two different strings (token Jaccard when either side is long,
/// else Jaro-Winkler) are deferred. Counting each deferred cell as 1
/// bounds the sum from above, so a pair whose bound falls below the
/// threshold is dropped without scoring the rest of its strings
/// (DESIGN.md §5m). A pair that survives has every cell scored and summed
/// in attribute order, so its score is bit-for-bit the unpruned one.
class PairScorer {
 public:
  PairScorer(std::vector<size_t> indexes, size_t required)
      : indexes_(std::move(indexes)),
        required_(required),
        cell_scores_(indexes_.size()) {}

  void Reserve(size_t rows) { cells_.reserve(rows * indexes_.size()); }

  /// Adds `row`'s features as the next slot (slots count from 0).
  void AddRow(const Tuple& row) {
    for (size_t index : indexes_) {
      const Value& v = row.at(index);
      Cell& cell = cells_.emplace_back();
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kBool:
          cell.kind = Kind::kBool;
          cell.num = v.bool_value() ? 1.0 : 0.0;
          break;
        case ValueType::kInt:
        case ValueType::kDouble:
          cell.kind = Kind::kNumber;
          cell.num = *v.AsDouble();
          break;
        case ValueType::kString:
          cell.kind = Kind::kString;
          cell.str = v.string_value();
          break;
      }
    }
  }

  /// The pair's similarity, or nullopt when it is provably below
  /// `threshold` (pass -infinity for the exact score of any pair).
  std::optional<double> Score(size_t slot_a, size_t slot_b, double threshold) {
    const size_t width = indexes_.size();
    Cell* a = &cells_[slot_a * width];
    Cell* b = &cells_[slot_b * width];
    double known = 0.0;  // sum of the cells scored so far, in any order
    size_t counted = 0;
    deferred_words_.clear();
    deferred_chars_.clear();
    for (size_t k = 0; k < width; ++k) {
      // A null on either side is absence of evidence, not disagreement —
      // a portal that omitted the crime rank must not veto a duplicate.
      if (a[k].kind == Kind::kNull || b[k].kind == Kind::kNull) continue;
      ++counted;
      double score = FreeCellScore(a[k], b[k]);
      if (score != kDeferred) {
        cell_scores_[k] = score;
        known += score;
      } else if (a[k].str.size() >= kLongString ||
                 b[k].str.size() >= kLongString) {
        deferred_words_.push_back(k);
      } else {
        deferred_chars_.push_back(k);
      }
    }
    if (counted < required_ || counted == 0) {
      if (0.0 >= threshold) return 0.0;
      return std::nullopt;
    }
    // Score deferred cells, word-set merges first (they are cheaper than
    // Jaro-Winkler), while even a perfect score on every pending cell
    // would reach threshold * counted. `known` adds cells in another
    // order than the final sum below; the slack covers that rounding
    // difference (a few ulps of `counted`), so only pairs whose exact
    // score is below the threshold are dropped.
    const double floor =
        (threshold - kBoundSlack) * static_cast<double>(counted);
    size_t pending = deferred_words_.size() + deferred_chars_.size();
    for (size_t k : deferred_words_) {
      if (known + static_cast<double>(pending) < floor) return std::nullopt;
      cell_scores_[k] = WordSetJaccard(&a[k], &b[k]);
      known += cell_scores_[k];
      --pending;
    }
    for (size_t k : deferred_chars_) {
      if (known + static_cast<double>(pending) < floor) return std::nullopt;
      cell_scores_[k] = JaroWinklerSimilarity(a[k].str, b[k].str);
      known += cell_scores_[k];
      --pending;
    }
    double sum = 0.0;
    for (size_t k = 0; k < width; ++k) {
      if (a[k].kind == Kind::kNull || b[k].kind == Kind::kNull) continue;
      sum += cell_scores_[k];
    }
    return sum / static_cast<double>(counted);
  }

 private:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString };

  static constexpr double kDeferred = -1.0;
  static constexpr uint32_t kNotTokenized = UINT32_MAX;

  struct Cell {
    std::string_view str;       // kString
    double num = 0.0;           // kNumber: the value; kBool: 0 or 1
    uint32_t words_begin = 0;   // kString, once tokenized: sorted unique
    uint32_t words_size = kNotTokenized;  // word ids in words_[begin, +size)
    Kind kind = Kind::kNull;
  };

  /// Score of a non-null cell pair, or kDeferred for two different
  /// strings (which need a string comparison).
  static double FreeCellScore(const Cell& a, const Cell& b) {
    if (a.kind != b.kind) return 0.0;  // mismatched types never agree
    switch (a.kind) {
      case Kind::kString:
        return a.str == b.str ? 1.0 : kDeferred;
      case Kind::kBool:
        return a.num == b.num ? 1.0 : 0.0;
      default:
        break;
    }
    // Equal numbers score 1 (int 3 and double 3.0 included), also the
    // infinities, which the band below would turn into NaN.
    if (a.num == b.num) return 1.0;
    // Numbers only count as similar within a tight relative band (5%):
    // two different properties' prices must not read as near-duplicates.
    double scale = std::max({std::fabs(a.num), std::fabs(b.num), 1e-9});
    double banded = std::fabs(a.num - b.num) / (0.05 * scale);
    return banded >= 1.0 ? 0.0 : 1.0 - banded;
  }

  /// TokenJaccard of the two strings' word sets, as an integer merge of
  /// interned ids.
  double WordSetJaccard(Cell* a, Cell* b) {
    InternWords(a);
    InternWords(b);
    if (a->words_size == 0 && b->words_size == 0) return 1.0;
    const uint32_t* x = words_.data() + a->words_begin;
    const uint32_t* y = words_.data() + b->words_begin;
    size_t i = 0;
    size_t j = 0;
    size_t inter = 0;
    while (i < a->words_size && j < b->words_size) {
      if (x[i] == y[j]) {
        ++inter;
        ++i;
        ++j;
      } else if (x[i] < y[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    size_t uni = a->words_size + b->words_size - inter;
    return static_cast<double>(inter) / static_cast<double>(uni);
  }

  /// On first use, appends the cell's word set (split on ' ', empty words
  /// dropped, as TokenJaccard's callers always did) to the arena as sorted
  /// unique ids.
  void InternWords(Cell* cell) {
    if (cell->words_size != kNotTokenized) return;
    const size_t begin = words_.size();
    std::string_view s = cell->str;
    for (size_t start = 0; start < s.size();) {
      size_t end = std::min(s.find(' ', start), s.size());
      if (end > start) {
        words_.push_back(
            word_ids_
                .try_emplace(s.substr(start, end - start),
                             static_cast<uint32_t>(word_ids_.size()))
                .first->second);
      }
      start = end + 1;
    }
    std::sort(words_.begin() + begin, words_.end());
    words_.erase(std::unique(words_.begin() + begin, words_.end()),
                 words_.end());
    cell->words_begin = static_cast<uint32_t>(begin);
    cell->words_size = static_cast<uint32_t>(words_.size() - begin);
  }

  const std::vector<size_t> indexes_;
  const size_t required_;
  std::vector<Cell> cells_;  // slot-major, one per compared attribute
  // Word ids of every tokenized cell, one flat arena per scorer.
  std::vector<uint32_t> words_;
  std::unordered_map<std::string_view, uint32_t> word_ids_;
  // Per-pair scratch.
  std::vector<double> cell_scores_;
  std::vector<size_t> deferred_words_;
  std::vector<size_t> deferred_chars_;
};

/// The attribute positions compared for similarity.
std::vector<size_t> ComparedAttributes(const Schema& schema,
                                       const DedupOptions& options) {
  std::vector<size_t> indexes;
  if (options.compare_attributes.empty()) {
    for (size_t i = 0; i < schema.arity(); ++i) indexes.push_back(i);
  } else {
    for (const std::string& attr : options.compare_attributes) {
      std::optional<size_t> i = schema.AttributeIndex(attr);
      if (i.has_value()) indexes.push_back(*i);
    }
  }
  return indexes;
}

/// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

DedupStats& DedupStats::operator+=(const DedupStats& other) {
  pairs_considered += other.pairs_considered;
  pairs_pruned += other.pairs_pruned;
  pairs_scored += other.pairs_scored;
  pairs_matched += other.pairs_matched;
  blocks_truncated += other.blocks_truncated;
  blocks_scored += other.blocks_scored;
  blocks_reused += other.blocks_reused;
  return *this;
}

void DedupMemo::Commit(Relation scored) {
  scored_ = std::move(scored);
  blocks_ = std::move(staged_);
  options_ = std::move(staged_options_);
  staged_.clear();
  // Measured once here: the gauge that reports it is refreshed every Run.
  bytes_ = sizeof(*this) + scored_.ApproxBytes();
  for (const auto& [key, block] : blocks_) {
    bytes_ += sizeof(key) + key.capacity() + sizeof(block) +
              block.rows.capacity() * sizeof(size_t) +
              block.pairs.capacity() * sizeof(DuplicatePair);
  }
}

DuplicateDetector::DuplicateDetector(DedupOptions options)
    : options_(std::move(options)) {}

double DuplicateDetector::RecordSimilarity(const Relation& rel, size_t row_a,
                                           size_t row_b) const {
  std::vector<size_t> indexes = ComparedAttributes(rel.schema(), options_);
  if (indexes.empty()) return 0.0;
  size_t required = std::min(options_.min_shared_fields, indexes.size());
  PairScorer scorer(std::move(indexes), required);
  scorer.AddRow(rel.rows()[row_a]);
  scorer.AddRow(rel.rows()[row_b]);
  return *scorer.Score(0, 1, -std::numeric_limits<double>::infinity());
}

Result<std::vector<DuplicatePair>> DuplicateDetector::FindDuplicates(
    const Relation& rel, DedupStats* stats, ThreadPool* pool,
    DedupMemo* memo) const {
  DedupStats local;
  DedupStats& st = (stats != nullptr) ? *stats : local;
  st = DedupStats();
  if (memo != nullptr) {
    memo->staged_.clear();
    memo->staged_options_ = options_;
  }
  // Build blocks.
  std::map<std::string, std::vector<size_t>> blocks;
  if (options_.blocking_attributes.empty()) {
    std::vector<size_t>& all = blocks[""];
    for (size_t r = 0; r < rel.size(); ++r) all.push_back(r);
  } else {
    std::vector<size_t> key_idx;
    for (const std::string& attr : options_.blocking_attributes) {
      std::optional<size_t> i = rel.schema().AttributeIndex(attr);
      if (!i.has_value()) {
        return Status::NotFound("blocking attribute " + attr + " not in " +
                                rel.schema().ToString());
      }
      key_idx.push_back(*i);
    }
    for (size_t r = 0; r < rel.size(); ++r) {
      std::string key;
      bool has_null = false;
      for (size_t i : key_idx) {
        const Value& v = rel.rows()[r].at(i);
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key += v.ToString();
        key += '\x1f';
      }
      // Rows with null blocking keys cannot be safely blocked; they are
      // left unpaired (a conservative choice documented here).
      if (!has_null) blocks[key].push_back(r);
    }
  }

  std::vector<DuplicatePair> out;
  const std::vector<size_t> indexes =
      ComparedAttributes(rel.schema(), options_);
  if (indexes.empty()) return out;
  const size_t required = std::min(options_.min_shared_fields, indexes.size());

  // Blocks that hold a pair, in blocking-key order. A block the memo's
  // committed call had, with the same rows in the same order, reuses its
  // pairs; the others become one task each, scoring with a scorer of
  // their own over the block's rows (pairs relative to the block).
  // Results are merged in blocking-key order, so the pairs and the stats
  // are the same with or without a pool.
  struct BlockResult {
    const std::string* key = nullptr;
    const std::vector<size_t>* rows = nullptr;
    const DedupMemo::Block* reused = nullptr;
    std::vector<DuplicatePair> pairs;
    DedupStats stats;
  };
  const bool memo_applies = memo != nullptr && memo->options_ == options_ &&
                            memo->scored_.schema() == rel.schema();
  std::vector<BlockResult> results;
  std::vector<size_t> scored;
  for (const auto& [key, rows] : blocks) {
    if (rows.size() < 2) continue;
    BlockResult& result = results.emplace_back();
    result.key = &key;
    result.rows = &rows;
    if (memo_applies) {
      auto it = memo->blocks_.find(key);
      if (it != memo->blocks_.end() &&
          std::equal(rows.begin(), rows.end(), it->second.rows.begin(),
                     it->second.rows.end(), [&](size_t now, size_t then) {
                       return rel.rows()[now] == memo->scored_.rows()[then];
                     })) {
        result.reused = &it->second;
        continue;
      }
    }
    scored.push_back(results.size() - 1);
  }
  ParallelFor(pool, scored.size(), [&](size_t s) {
    BlockResult& result = results[scored[s]];
    const std::vector<size_t>& rows = *result.rows;
    PairScorer scorer(indexes, required);
    scorer.Reserve(rows.size());
    for (size_t r : rows) scorer.AddRow(rel.rows()[r]);
    size_t budget = options_.max_pairs_per_block;
    bool truncated = false;
    for (size_t i = 0; i < rows.size() && !truncated; ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        if (budget == 0) {
          truncated = true;
          break;
        }
        --budget;
        ++result.stats.pairs_considered;
        std::optional<double> sim = scorer.Score(i, j, options_.threshold);
        if (!sim.has_value()) {
          ++result.stats.pairs_pruned;
          continue;
        }
        ++result.stats.pairs_scored;
        if (*sim >= options_.threshold) {
          ++result.stats.pairs_matched;
          result.pairs.push_back(DuplicatePair{i, j, *sim});
        }
      }
    }
    if (truncated) ++result.stats.blocks_truncated;
  });
  DedupMemo::Blocks staged;
  for (const BlockResult& result : results) {
    const std::vector<DuplicatePair>& pairs =
        result.reused != nullptr ? result.reused->pairs : result.pairs;
    if (result.reused != nullptr) {
      ++st.blocks_reused;
    } else {
      st += result.stats;
      ++st.blocks_scored;
    }
    for (const DuplicatePair& p : pairs) {
      out.push_back(DuplicatePair{(*result.rows)[p.row_a],
                                  (*result.rows)[p.row_b], p.similarity});
    }
    // Copied here, on the calling thread: the memo outlives the call.
    if (memo != nullptr) {
      staged.emplace(*result.key, DedupMemo::Block{*result.rows, pairs});
    }
  }
  if (memo != nullptr) memo->staged_ = std::move(staged);
  return out;
}

Result<DuplicateClusters> DuplicateDetector::Cluster(
    const Relation& rel, DedupStats* stats, ThreadPool* pool,
    DedupMemo* memo) const {
  Result<std::vector<DuplicatePair>> pairs =
      FindDuplicates(rel, stats, pool, memo);
  if (!pairs.ok()) return pairs.status();
  UnionFind uf(rel.size());
  for (const DuplicatePair& p : pairs.value()) {
    uf.Union(p.row_a, p.row_b);
  }
  // Clusters numbered densely in order of their first row.
  DuplicateClusters out;
  out.cluster_of.resize(rel.size());
  constexpr size_t kUnnumbered = std::numeric_limits<size_t>::max();
  std::vector<size_t> number_of_root(rel.size(), kUnnumbered);
  for (size_t r = 0; r < rel.size(); ++r) {
    size_t& number = number_of_root[uf.Find(r)];
    if (number == kUnnumbered) number = out.num_clusters++;
    out.cluster_of[r] = number;
  }
  return out;
}

}  // namespace vada
