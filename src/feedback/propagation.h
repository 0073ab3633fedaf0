#ifndef VADA_FEEDBACK_PROPAGATION_H_
#define VADA_FEEDBACK_PROPAGATION_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "feedback/feedback.h"
#include "kb/relation.h"
#include "mapping/mapping.h"
#include "match/match_types.h"

namespace vada {

/// Options controlling how feedback revises evidence.
struct PropagatorOptions {
  /// Multiplicative penalty per incorrect annotation on a match. Chosen
  /// so that single annotations merely nudge the score while roughly a
  /// dozen corroborating annotations push a strong match (~0.95) below
  /// the mapping generator's default inclusion threshold (0.45) — i.e.
  /// sustained evidence retires the match, noise does not.
  double penalty = 0.06;
  /// Multiplicative reinforcement per correct annotation (capped at 1).
  double reinforcement = 0.05;
  /// Tuple-level feedback spreads over all covered attributes at this
  /// fraction of the attribute-level effect.
  double tuple_level_factor = 0.4;
};

/// One attributed feedback item: the match (identified by source
/// relation/attribute and target attribute) that fed the annotated value,
/// plus the revision strength. Attributions are value-based lineage
/// resolved at the time the feedback arrives; sessions memoise them so a
/// later change of mappings (often *caused* by the penalty) cannot erase
/// the evidence — otherwise penalty and lineage chase each other and the
/// orchestration never converges.
struct MatchAttribution {
  size_t item_index = 0;  ///< index into the feedback store's items
  std::string source_relation;
  std::string source_attribute;
  std::string target_attribute;
  double strength = 1.0;  ///< 1 for attribute-level, lower for tuple-level
  FeedbackPolarity polarity = FeedbackPolarity::kIncorrect;
};

/// Result of a propagation pass.
struct PropagationResult {
  std::vector<MatchCandidate> revised_matches;
  size_t matches_penalized = 0;
  size_t matches_reinforced = 0;
  /// Per-source estimated correctness from tuple-level feedback.
  std::map<std::string, double> source_correctness;
};

/// Per mapping id, the relations holding its output (raw and repaired).
using MappingOutputs = std::map<std::string, std::vector<const Relation*>>;

/// The paper's Mapping Evaluation / feedback loop (§2.3): "a mapping
/// evaluation transducer ... may identify a problem with a specific match
/// used within the mapping, and revise the score of that match in the
/// knowledge base. This may in turn lead to the rerunning of the mapping
/// generation transducer."
///
/// Lineage is value-based: an annotated tuple is attributed to every
/// mapping one of whose output relations contains it; the match feeding
/// the annotated attribute in that mapping takes the score revision.
class FeedbackPropagator {
 public:
  explicit FeedbackPropagator(PropagatorOptions options = PropagatorOptions());

  /// Revises `matches` given feedback `items` and per-mapping results
  /// (`mapping_results` keyed by mapping id). One-shot convenience:
  /// attributes all items against the given lineage and applies factors.
  Result<PropagationResult> Propagate(
      const std::vector<FeedbackItem>& items,
      const std::vector<Mapping>& mappings,
      const std::map<std::string, Relation>& mapping_results,
      std::vector<MatchCandidate> matches) const;

  /// Resolves lineage for the item at `item_index`: which matches fed the
  /// annotated value, through which mappings. Empty when no mapping's
  /// `outputs` contain the tuple (the item can be retried later).
  std::vector<MatchAttribution> AttributeItem(
      const std::vector<FeedbackItem>& items, size_t item_index,
      const std::vector<Mapping>& mappings, const MappingOutputs& outputs,
      const std::vector<MatchCandidate>& matches) const;

  /// Multiplicative score factor per match key (source_relation,
  /// source_attribute, target_attribute), aggregated over attributions.
  std::map<std::tuple<std::string, std::string, std::string>, double>
  FactorsFrom(const std::vector<MatchAttribution>& attributions) const;

 private:
  PropagatorOptions options_;
};

}  // namespace vada

#endif  // VADA_FEEDBACK_PROPAGATION_H_
