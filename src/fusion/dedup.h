#ifndef VADA_FUSION_DEDUP_H_
#define VADA_FUSION_DEDUP_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/relation.h"

namespace vada {

class ThreadPool;

/// Options for duplicate detection.
struct DedupOptions {
  /// Attributes used to block candidate pairs (rows compared only within
  /// equal blocking-key groups). Empty = single block (quadratic!).
  std::vector<std::string> blocking_attributes;
  /// Attributes compared for similarity; empty = every attribute.
  std::vector<std::string> compare_attributes;
  /// Record-pair similarity threshold for declaring a duplicate.
  double threshold = 0.8;
  /// Minimum number of attributes where BOTH records are non-null for a
  /// pair to be comparable at all; sparser pairs never match (a row
  /// carrying only a postcode must not absorb its whole block).
  size_t min_shared_fields = 3;
  /// Hard cap on pairs examined per block (defensive on skewed blocks).
  size_t max_pairs_per_block = 100000;

  bool operator==(const DedupOptions&) const = default;
};

/// A detected duplicate pair (row indexes into the relation).
struct DuplicatePair {
  size_t row_a = 0;
  size_t row_b = 0;
  double similarity = 0.0;
};

/// Work counters of one FindDuplicates (or Cluster) call. Every pair
/// examined is either pruned or scored: pairs_pruned + pairs_scored ==
/// pairs_considered, and pairs_matched <= pairs_scored.
struct DedupStats {
  size_t pairs_considered = 0;  ///< candidate pairs within the block cap
  size_t pairs_pruned = 0;      ///< ruled out early: score bound, or too
                                ///< few shared attributes
  size_t pairs_scored = 0;      ///< exact similarity computed
  size_t pairs_matched = 0;     ///< similarity at or above the threshold
  size_t blocks_truncated = 0;  ///< blocks with more pairs than the cap
  size_t blocks_scored = 0;     ///< blocks holding a pair that were scored
  size_t blocks_reused = 0;     ///< blocks whose pairs a DedupMemo supplied

  DedupStats& operator+=(const DedupStats& other);
};

/// What one FindDuplicates call leaves for the next (DESIGN.md §5p): the
/// relation it scored and, per blocking key of a block holding a pair,
/// the block's rows and its pairs relative to the block. A block of the
/// next call with the same key and exactly the same rows in the same
/// order takes those pairs instead of scoring again: a pair's similarity
/// and a block's truncation depend only on the block's rows. Rows are
/// compared, not hashed, against the relation the caller hands back with
/// Commit, so nothing is copied to remember them. A reused block does no
/// work and adds only to `blocks_reused`.
class DedupMemo {
 public:
  /// Keeps `scored`, the relation the last FindDuplicates call given this
  /// memo was run on, for the next call to compare against. Until a
  /// commit, the next call compares against the previous one.
  void Commit(Relation scored);

  /// Approximate resident bytes of the kept relation and its blocks, as
  /// of the last Commit.
  size_t ApproxBytes() const { return bytes_; }

 private:
  friend class DuplicateDetector;

  struct Block {
    std::vector<size_t> rows;          ///< positions in the scored relation
    std::vector<DuplicatePair> pairs;  ///< positions in `rows`
  };
  using Blocks = std::map<std::string, Block>;

  DedupOptions options_;
  Relation scored_{Schema()};
  Blocks blocks_;  ///< describes scored_
  DedupOptions staged_options_;
  Blocks staged_;  ///< the last call's blocks, awaiting Commit
  size_t bytes_ = sizeof(DedupMemo);
};

/// Clusters of mutually-duplicate rows (transitive closure of pairs).
struct DuplicateClusters {
  /// cluster id per row (clusters numbered densely from 0).
  std::vector<size_t> cluster_of;
  size_t num_clusters = 0;
};

/// The paper's duplicate-detection functionality ("a data fusion
/// transducer may start to evaluate when duplicates have been detected",
/// §2): blocking + field-wise record similarity + union-find clustering.
class DuplicateDetector {
 public:
  explicit DuplicateDetector(DedupOptions options = DedupOptions());

  /// Record-pair similarity: mean of per-attribute value similarities
  /// over the attributes where both rows are non-null (exact match 1,
  /// numeric closeness, string similarity, mismatched types 0); 0 when
  /// fewer than min_shared_fields attributes are shared.
  double RecordSimilarity(const Relation& rel, size_t row_a, size_t row_b)
      const;

  /// All pairs at or above the threshold, block by block in blocking-key
  /// order, each block's pairs in row order. A pair's `similarity` is
  /// exactly RecordSimilarity's; pairs that provably cannot reach the
  /// threshold are rejected without scoring their string cells. With a
  /// `pool`, the blocks are scored as concurrent tasks (one per block
  /// that holds a pair); the pairs, their order and `stats` are the same
  /// as without one. With a `memo`, blocks unchanged since the memo's
  /// committed call reuse its pairs, and this call's blocks are staged in
  /// it for the caller to Commit together with `rel`; the pairs are the
  /// same as without one.
  Result<std::vector<DuplicatePair>> FindDuplicates(
      const Relation& rel, DedupStats* stats = nullptr,
      ThreadPool* pool = nullptr, DedupMemo* memo = nullptr) const;

  /// Union-find clustering of duplicate pairs (FindDuplicates' `pool` and
  /// `memo`).
  Result<DuplicateClusters> Cluster(const Relation& rel,
                                    DedupStats* stats = nullptr,
                                    ThreadPool* pool = nullptr,
                                    DedupMemo* memo = nullptr) const;

 private:
  DedupOptions options_;
};

}  // namespace vada

#endif  // VADA_FUSION_DEDUP_H_
