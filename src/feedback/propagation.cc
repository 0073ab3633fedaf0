#include "feedback/propagation.h"

#include <algorithm>
#include <set>

namespace vada {

FeedbackPropagator::FeedbackPropagator(PropagatorOptions options)
    : options_(options) {}

std::vector<MatchAttribution> FeedbackPropagator::AttributeItem(
    const std::vector<FeedbackItem>& items, size_t item_index,
    const std::vector<Mapping>& mappings, const MappingOutputs& outputs,
    const std::vector<MatchCandidate>& matches) const {
  std::vector<MatchAttribution> out;
  if (item_index >= items.size()) return out;
  const FeedbackItem& item = items[item_index];

  // Deduplicate across mappings: the same match may feed several
  // mappings' results, but one annotation is one piece of evidence.
  std::set<std::tuple<std::string, std::string, std::string>> seen;

  auto holds = [&](const Relation* r) { return r->Contains(item.tuple); };
  for (const Mapping& mapping : mappings) {
    auto it = outputs.find(mapping.id);
    if (it == outputs.end()) continue;
    if (std::none_of(it->second.begin(), it->second.end(), holds)) continue;

    std::vector<std::string> affected;
    double strength = 1.0;
    if (!item.attribute.empty()) {
      affected.push_back(item.attribute);
    } else {
      affected = mapping.covered_attributes;
      strength = options_.tuple_level_factor;
    }

    for (const std::string& attr : affected) {
      for (const MatchCandidate& m : matches) {
        if (m.target_attribute != attr) continue;
        if (std::find(mapping.source_relations.begin(),
                      mapping.source_relations.end(),
                      m.source_relation) == mapping.source_relations.end()) {
          continue;
        }
        auto key = std::make_tuple(m.source_relation, m.source_attribute,
                                   m.target_attribute);
        if (!seen.insert(key).second) continue;
        MatchAttribution a;
        a.item_index = item_index;
        a.source_relation = m.source_relation;
        a.source_attribute = m.source_attribute;
        a.target_attribute = m.target_attribute;
        a.strength = strength;
        a.polarity = item.polarity;
        out.push_back(std::move(a));
      }
    }
  }
  return out;
}

std::map<std::tuple<std::string, std::string, std::string>, double>
FeedbackPropagator::FactorsFrom(
    const std::vector<MatchAttribution>& attributions) const {
  std::map<std::tuple<std::string, std::string, std::string>, double> factors;
  for (const MatchAttribution& a : attributions) {
    auto key = std::make_tuple(a.source_relation, a.source_attribute,
                               a.target_attribute);
    double& f = factors.emplace(key, 1.0).first->second;
    if (a.polarity == FeedbackPolarity::kIncorrect) {
      f *= 1.0 - options_.penalty * a.strength;
    } else {
      f *= 1.0 + options_.reinforcement * a.strength;
    }
  }
  return factors;
}

Result<PropagationResult> FeedbackPropagator::Propagate(
    const std::vector<FeedbackItem>& items, const std::vector<Mapping>& mappings,
    const std::map<std::string, Relation>& mapping_results,
    std::vector<MatchCandidate> matches) const {
  PropagationResult out;
  MappingOutputs outputs;
  for (const auto& [id, result] : mapping_results) outputs[id] = {&result};

  std::vector<MatchAttribution> attributions;
  // Tuple-level tallies per source relation.
  std::map<std::string, std::pair<size_t, size_t>> tallies;  // (correct, total)

  for (size_t i = 0; i < items.size(); ++i) {
    std::vector<MatchAttribution> part =
        AttributeItem(items, i, mappings, outputs, matches);
    attributions.insert(attributions.end(), part.begin(), part.end());

    if (items[i].attribute.empty()) {
      // Tuple-level: maintain the per-source correctness tallies.
      for (const Mapping& mapping : mappings) {
        auto rit = mapping_results.find(mapping.id);
        if (rit == mapping_results.end()) continue;
        if (!rit->second.Contains(items[i].tuple)) continue;
        for (const std::string& src : mapping.source_relations) {
          auto& [correct, total] = tallies[src];
          ++total;
          if (items[i].polarity == FeedbackPolarity::kCorrect) ++correct;
        }
      }
    }
  }

  auto factors = FactorsFrom(attributions);
  std::set<std::tuple<std::string, std::string, std::string>> penalized;
  std::set<std::tuple<std::string, std::string, std::string>> reinforced;
  for (MatchCandidate& m : matches) {
    auto key = std::make_tuple(m.source_relation, m.source_attribute,
                               m.target_attribute);
    auto it = factors.find(key);
    if (it == factors.end()) continue;
    double revised = std::min(1.0, m.score * it->second);
    if (revised < m.score) penalized.insert(key);
    if (revised > m.score) reinforced.insert(key);
    m.score = revised;
    m.matcher = "feedback";
  }
  out.matches_penalized = penalized.size();
  out.matches_reinforced = reinforced.size();

  for (const auto& [src, tally] : tallies) {
    const auto& [correct, total] = tally;
    out.source_correctness[src] =
        total == 0 ? 1.0
                   : static_cast<double>(correct) / static_cast<double>(total);
  }
  out.revised_matches = std::move(matches);
  return out;
}

}  // namespace vada
