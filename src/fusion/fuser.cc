#include "fusion/fuser.h"

#include <algorithm>

namespace vada {

Fuser::Fuser(FusionOptions options) : options_(std::move(options)) {}

Result<Relation> Fuser::Fuse(const Relation& rel,
                             const DuplicateClusters& clusters,
                             const std::string& result_name,
                             FusionStats* stats) const {
  if (clusters.cluster_of.size() != rel.size()) {
    return Status::InvalidArgument(
        "cluster assignment size does not match relation size");
  }
  if (!options_.row_weights.empty() &&
      options_.row_weights.size() != rel.size()) {
    return Status::InvalidArgument(
        "row_weights size does not match relation size");
  }

  FusionStats local;
  FusionStats* st = (stats != nullptr) ? stats : &local;
  st->input_rows = rel.size();

  std::vector<std::vector<size_t>> members(clusters.num_clusters);
  for (size_t r = 0; r < rel.size(); ++r) {
    members[clusters.cluster_of[r]].push_back(r);
  }

  Relation out(Schema(result_name, rel.schema().attributes()));
  const size_t arity = rel.schema().arity();
  // One tally per distinct non-null value of a column, in first-seen
  // order; clusters are small, so a scan beats a tree.
  struct Tally {
    const Value* value;
    double votes;
  };
  std::vector<Tally> tallies;
  for (const std::vector<size_t>& cluster : members) {
    if (cluster.empty()) continue;
    // A lone row has nothing to vote against: it is its own fused row.
    if (cluster.size() == 1) {
      VADA_RETURN_IF_ERROR(out.InsertUnchecked(rel.rows()[cluster[0]]));
      continue;
    }
    std::vector<Value> fused(arity);
    for (size_t col = 0; col < arity; ++col) {
      // Weighted vote among non-null values.
      tallies.clear();
      size_t non_null_members = 0;
      for (size_t r : cluster) {
        const Value& v = rel.rows()[r].at(col);
        if (v.is_null()) continue;
        ++non_null_members;
        double w =
            options_.row_weights.empty() ? 1.0 : options_.row_weights[r];
        auto it = std::find_if(tallies.begin(), tallies.end(),
                               [&v](const Tally& t) { return *t.value == v; });
        if (it == tallies.end()) {
          it = tallies.insert(tallies.end(), Tally{&v, 0.0});
        }
        it->votes += w;
      }
      if (tallies.empty()) {
        fused[col] = Value::Null();
        continue;
      }
      // The most votes wins; among equal votes, the first value in Value
      // order.
      const Value* best = nullptr;
      double best_votes = -1.0;
      for (const Tally& t : tallies) {
        if (t.votes > best_votes ||
            (t.votes == best_votes && best != nullptr && *t.value < *best)) {
          best_votes = t.votes;
          best = t.value;
        }
      }
      fused[col] = *best;
      if (tallies.size() > 1) ++st->conflicts_resolved;
      if (non_null_members < cluster.size()) ++st->nulls_filled;
    }
    VADA_RETURN_IF_ERROR(out.InsertUnchecked(Tuple(std::move(fused))));
  }
  st->output_rows = out.size();
  return out;
}

}  // namespace vada
