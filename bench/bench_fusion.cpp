// Experiment E12 — duplicate detection + fusion ablation (§2: "a data
// fusion transducer may start to evaluate when duplicates have been
// detected"): measures pairwise dedup quality and fusion's null-filling
// as the overlap between the two portals grows.
//
// Expected shape: dedup recall/precision stay high across overlap rates;
// fused size tracks |union of distinct properties|; conflicts resolved
// and nulls filled grow with overlap.
//
// Also a correctness gate for the bound-pruned scorer: at every overlap
// FindDuplicates must equal an exhaustive within-block sweep of
// RecordSimilarity (same pairs, same order, identical doubles); the bench
// exits non-zero otherwise. Writes BENCH_fusion.json (pairs considered,
// pruned and matched, and ms, per overlap).
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fusion/dedup.h"
#include "fusion/fuser.h"

namespace {

using namespace vada;

/// Builds a combined relation from two portal extractions over the same
/// universe, tagging each row with its true property id (kept outside the
/// relation) so dedup decisions can be scored.
struct Combined {
  Relation rel{Schema()};
  std::vector<int64_t> truth_id;  // parallel to rel rows
};

Combined CombinePortals(const GroundTruth& truth, double overlap,
                        uint64_t seed) {
  // Portal A covers `overlap + (1-overlap)/2`; portal B likewise from the
  // other side, so the expected co-listed fraction is `overlap`.
  ExtractionErrorOptions a_opts;
  a_opts.seed = seed;
  a_opts.coverage = 1.0;  // manual coverage below
  ExtractionErrorOptions b_opts;
  b_opts.seed = seed + 1;
  b_opts.coverage = 1.0;
  Relation a = ExtractRightmove(truth, a_opts);
  Relation b = ExtractRightmove(truth, b_opts);  // same schema: easier scoring

  Combined out;
  out.rel = Relation(Schema::Untyped(
      "combined",
      {"price", "street", "postcode", "bedrooms", "type", "description"}));
  Rng rng(seed + 7);
  // Row index in the extraction corresponds to universe order filtered by
  // coverage=1, i.e. property i = row i.
  size_t n = truth.properties.size();
  for (size_t i = 0; i < n && i < a.size() && i < b.size(); ++i) {
    double coin = rng.UniformDouble();
    bool in_a = coin < overlap || (coin >= overlap && coin < overlap +
                                   (1.0 - overlap) / 2.0);
    bool in_b = coin < overlap || coin >= overlap + (1.0 - overlap) / 2.0;
    if (in_a) {
      bool added = false;
      out.rel.InsertUnchecked(a.rows()[i], &added);
      if (added) out.truth_id.push_back(static_cast<int64_t>(i));
    }
    if (in_b) {
      bool added = false;
      out.rel.InsertUnchecked(b.rows()[i], &added);
      if (added) out.truth_id.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

/// Every within-block pair (postcode blocks in key order, pairs in row
/// order) whose unpruned RecordSimilarity reaches the threshold.
std::vector<DuplicatePair> ExhaustiveSweep(const Relation& rel,
                                           const DedupOptions& opts) {
  DuplicateDetector detector(opts);
  const size_t key = *rel.schema().AttributeIndex("postcode");
  std::map<std::string, std::vector<size_t>> blocks;
  for (size_t r = 0; r < rel.size(); ++r) {
    const Value& v = rel.rows()[r].at(key);
    if (!v.is_null()) blocks[v.ToString() + '\x1f'].push_back(r);
  }
  std::vector<DuplicatePair> out;
  for (const auto& [k, rows] : blocks) {
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        double sim = detector.RecordSimilarity(rel, rows[i], rows[j]);
        if (sim >= opts.threshold) {
          out.push_back(DuplicatePair{rows[i], rows[j], sim});
        }
      }
    }
  }
  return out;
}

bool SamePairs(const std::vector<DuplicatePair>& a,
               const std::vector<DuplicatePair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].row_a != b[i].row_a || a[i].row_b != b[i].row_b ||
        a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace vada::bench;

  std::printf("E12: duplicate detection + fusion vs portal overlap\n\n");

  PropertyUniverseOptions uopts;
  uopts.num_properties = 300;
  uopts.num_postcodes = 40;
  uopts.seed = 404;
  GroundTruth truth = GeneratePropertyUniverse(uopts);

  Table table({"overlap", "input rows", "pairs considered", "pruned",
               "matched", "clusters", "pair precision", "pair recall",
               "nulls filled", "ms"});
  BenchReport report("fusion");
  bool all_exact = true;
  for (double overlap : {0.0, 0.25, 0.5, 0.75}) {
    Combined combined = CombinePortals(truth, overlap, 50);
    DedupOptions opts;
    opts.blocking_attributes = {"postcode"};
    opts.threshold = 0.8;
    DuplicateDetector detector(opts);

    Result<std::vector<DuplicatePair>> pairs(std::vector<DuplicatePair>{});
    Result<DuplicateClusters> clusters(DuplicateClusters{});
    DedupStats dedup;
    double ms = TimeMs([&] {
      pairs = detector.FindDuplicates(combined.rel, &dedup);
      clusters = detector.Cluster(combined.rel);
    });
    if (!pairs.ok() || !clusters.ok()) {
      std::fprintf(stderr, "dedup failed\n");
      return 1;
    }
    if (!SamePairs(pairs.value(), ExhaustiveSweep(combined.rel, opts))) {
      std::fprintf(stderr,
                   "overlap %.2f: FindDuplicates disagrees with the "
                   "exhaustive RecordSimilarity sweep\n",
                   overlap);
      all_exact = false;
    }

    // Score pairs against truth ids.
    size_t tp = 0;
    for (const DuplicatePair& p : pairs.value()) {
      if (combined.truth_id[p.row_a] == combined.truth_id[p.row_b]) ++tp;
    }
    // True duplicate pair count: properties listed twice.
    std::map<int64_t, size_t> listing_count;
    for (int64_t id : combined.truth_id) ++listing_count[id];
    size_t true_pairs = 0;
    for (const auto& [id, count] : listing_count) {
      true_pairs += count * (count - 1) / 2;
    }
    double precision = pairs.value().empty()
                           ? 1.0
                           : static_cast<double>(tp) / pairs.value().size();
    double recall = true_pairs == 0
                        ? 1.0
                        : static_cast<double>(tp) / true_pairs;

    Fuser fuser;
    FusionStats stats;
    Result<Relation> fused =
        fuser.Fuse(combined.rel, clusters.value(), "fused", &stats);
    if (!fused.ok()) continue;

    table.AddRow({Fmt(overlap, 2), std::to_string(combined.rel.size()),
                  std::to_string(dedup.pairs_considered),
                  std::to_string(dedup.pairs_pruned),
                  std::to_string(dedup.pairs_matched),
                  std::to_string(clusters.value().num_clusters),
                  Fmt(precision), Fmt(recall),
                  std::to_string(stats.nulls_filled), Fmt(ms, 1)});
    const std::string prefix = "overlap_" + Fmt(overlap, 2) + ".";
    report.Add(prefix + "pairs_considered",
               static_cast<double>(dedup.pairs_considered));
    report.Add(prefix + "pairs_pruned",
               static_cast<double>(dedup.pairs_pruned));
    report.Add(prefix + "pairs_matched",
               static_cast<double>(dedup.pairs_matched));
    report.Add(prefix + "pair_precision", precision);
    report.Add(prefix + "pair_recall", recall);
    report.Add(prefix + "ms", ms);
  }
  table.Print();
  report.Add("exact", all_exact ? 1.0 : 0.0);
  report.WriteJson();
  std::printf(
      "\nexpected shape: at overlap 0.00 no true duplicate exists, so\n"
      "precision is vacuously 0 over a handful of twin-property false\n"
      "positives and recall vacuously 1. Once real duplicates exist,\n"
      "precision sits near 0.8 and recall around 0.6-0.7 — extraction\n"
      "noise both hides duplicates (postcode typos break the blocking\n"
      "key; bedroom-area corruption lowers similarity) and never rises\n"
      "with overlap, while nulls filled grows with overlap as fusion\n"
      "recovers values across portals.\n");
  if (!all_exact) {
    std::fprintf(stderr, "FAIL: pruned duplicate detection is not exact\n");
    return 1;
  }
  return 0;
}
