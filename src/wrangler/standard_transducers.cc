#include "wrangler/standard_transducers.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <set>

#include "feedback/propagation.h"
#include "fusion/fuser.h"
#include "mapping/executor.h"
#include "mapping/mapping.h"
#include "quality/metrics.h"

namespace vada {

namespace {

/// Names of relations holding source instances, sorted (deterministic).
std::vector<std::string> SourceNames(const KnowledgeBase& kb) {
  return kb.catalog().RelationsWithRole(RelationRole::kSource);
}

Result<Schema> TargetSchema(const KnowledgeBase& kb,
                            const WranglingState& state) {
  Result<const Relation*> target = kb.GetRelation(state.target_relation);
  if (!target.ok()) {
    return Status::FailedPrecondition("target relation " +
                                      state.target_relation +
                                      " missing from knowledge base");
  }
  return target.value()->schema();
}

/// Reads matches from a KB relation, tolerating its absence.
std::vector<MatchCandidate> ReadMatches(const KnowledgeBase& kb,
                                        const std::string& relation_name) {
  const Relation* rel = kb.FindRelation(relation_name);
  if (rel == nullptr) return {};
  Result<std::vector<MatchCandidate>> parsed = MatchesFromRelation(*rel);
  return parsed.ok() ? std::move(parsed).value() : std::vector<MatchCandidate>{};
}

Result<std::vector<Mapping>> ReadMappings(const KnowledgeBase& kb) {
  const Relation* rel = kb.FindRelation("mapping");
  if (rel == nullptr) return std::vector<Mapping>{};
  return MappingsFromRelation(*rel);
}

/// The relation a mapping's consumers should read: the repaired variant
/// when the repair transducer produced one, else the raw result.
const Relation* EffectiveResult(const KnowledgeBase& kb, const Mapping& m) {
  const Relation* repaired = kb.FindRelation("repaired_" + m.id);
  if (repaired != nullptr) return repaired;
  return kb.FindRelation(m.result_predicate);
}

/// Hands `rel` over to the KB (no row is copied) and marks it metadata.
Status WriteMetadataRelation(KnowledgeBase* kb, Relation rel) {
  const std::string name = rel.name();
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(std::move(rel)));
  kb->catalog().SetRole(name, RelationRole::kMetadata);
  return Status::OK();
}


// ---------------------------------------------------------------------------
// Transducer bodies.
// ---------------------------------------------------------------------------

Status SchemaMatchingBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  SchemaMatcher matcher(state->config.schema_matcher);
  std::vector<MatchCandidate> all;
  for (const std::string& source : SourceNames(*kb)) {
    const Relation* rel = kb->FindRelation(source);
    if (rel == nullptr) continue;
    std::vector<MatchCandidate> matches =
        matcher.Match(rel->schema(), target.value());
    all.insert(all.end(), matches.begin(), matches.end());
  }
  return WriteMetadataRelation(kb, MatchesToRelation(all, "match_schema"));
}

Status InstanceMatchingBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  Result<DataContext> context = ReadDataContext(*kb);
  if (!context.ok()) return context.status();
  // One task per (source, binding) pair, over relations looked up here.
  struct MatchTask {
    const Relation* source;
    const Relation* instances;
    const DataContextBinding* binding;
  };
  std::vector<MatchTask> tasks;
  for (const std::string& source : SourceNames(*kb)) {
    const Relation* src = kb->FindRelation(source);
    if (src == nullptr || src->empty()) continue;
    for (const DataContextBinding& binding : context.value().bindings()) {
      const Relation* ctx = kb->FindRelation(binding.context_relation);
      if (ctx == nullptr || ctx->empty()) continue;
      tasks.push_back(MatchTask{src, ctx, &binding});
    }
  }
  InstanceMatcher matcher(state->config.instance_matcher);
  std::vector<std::vector<MatchCandidate>> kept(tasks.size());
  ParallelFor(state->pool.get(), tasks.size(), [&](size_t i) {
    std::vector<std::pair<std::string, std::string>> rename;
    for (const ContextCorrespondence& c : tasks[i].binding->correspondences) {
      rename.push_back({c.context_attribute, c.target_attribute});
    }
    for (MatchCandidate& m :
         matcher.Match(*tasks[i].source, *tasks[i].instances,
                       target.value().relation_name(), rename)) {
      // Keep only candidates that land on actual target attributes.
      if (target.value().AttributeIndex(m.target_attribute).has_value()) {
        kept[i].push_back(std::move(m));
      }
    }
  });
  std::vector<MatchCandidate> all;
  for (std::vector<MatchCandidate>& part : kept) {
    std::move(part.begin(), part.end(), std::back_inserter(all));
  }
  return WriteMetadataRelation(
      kb, MatchesToRelation(BestPerPair(std::move(all)), "match_instance"));
}

Status MatchCombinationBody(WranglingState* state, KnowledgeBase* kb) {
  std::vector<MatchCandidate> all = ReadMatches(*kb, "match_schema");
  std::vector<MatchCandidate> inst = ReadMatches(*kb, "match_instance");
  all.insert(all.end(), inst.begin(), inst.end());
  std::vector<MatchCandidate> combined =
      CombineMatches(all, state->config.combiner);

  // Apply feedback penalties persisted by the feedback transducer.
  const Relation* penalties = kb->FindRelation("match_penalty");
  if (penalties != nullptr) {
    for (const Tuple& row : penalties->rows()) {
      if (row.size() != 4) continue;
      std::optional<double> factor = row.at(3).AsDouble();
      if (!factor.has_value()) continue;
      for (MatchCandidate& m : combined) {
        if (m.source_relation == row.at(0).ToString() &&
            m.source_attribute == row.at(1).ToString() &&
            m.target_attribute == row.at(2).ToString()) {
          m.score = std::min(1.0, m.score * *factor);
        }
      }
    }
  }
  return WriteMetadataRelation(kb, MatchesToRelation(combined, "match"));
}

Status MappingGenerationBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  // Sources vetoed by source selection contribute no mappings.
  std::set<std::string> excluded;
  if (const Relation* ex = kb->FindRelation("excluded_source");
      ex != nullptr) {
    for (const Tuple& row : ex->rows()) excluded.insert(row.at(0).ToString());
  }
  std::vector<Schema> sources;
  for (const std::string& name : SourceNames(*kb)) {
    if (excluded.count(name) > 0) continue;
    const Relation* rel = kb->FindRelation(name);
    if (rel != nullptr) sources.push_back(rel->schema());
  }
  MappingGenerator generator(state->config.generator);
  Result<std::vector<Mapping>> mappings =
      generator.Generate(target.value(), sources, ReadMatches(*kb, "match"));
  if (!mappings.ok()) return mappings.status();
  return WriteMetadataRelation(kb, MappingsToRelation(mappings.value()));
}

Status MappingExecutionBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  Result<std::vector<Mapping>> read = ReadMappings(*kb);
  if (!read.ok()) return read.status();
  const std::vector<Mapping>& mappings = read.value();
  MappingExecutor executor(state->config.planner);
  executor.set_snapshot_cache(&state->snapshot_cache);
  if (state->config.incremental.enabled && state->delta_log != nullptr) {
    // Serial: each mapping's maintained state reads the delta log.
    for (const Mapping& m : mappings) {
      Result<Relation> result = executor.ExecuteIncremental(
          m, target.value(), *kb, *state->delta_log,
          state->config.incremental.max_delta_fraction,
          &state->mapping_delta[m.id]);
      if (!result.ok()) return result.status();
      VADA_RETURN_IF_ERROR(
          WriteMetadataRelation(kb, std::move(result).value()));
    }
    // Drop maintained state of mappings that no longer exist.
    std::set<std::string> live;
    for (const Mapping& m : mappings) live.insert(m.id);
    for (auto it = state->mapping_delta.begin();
         it != state->mapping_delta.end();) {
      it = live.count(it->first) > 0 ? std::next(it)
                                     : state->mapping_delta.erase(it);
    }
    return Status::OK();
  }
  // One task per mapping, over source snapshots taken here; the results
  // become relations here too, written in mapping order.
  std::vector<SourceSnapshots> sources;
  for (const Mapping& m : mappings) {
    sources.push_back(executor.Snapshots(m, *kb));
  }
  std::vector<Result<MappingRows>> rows(mappings.size(),
                                        Status::Internal("not evaluated"));
  ParallelFor(state->pool.get(), mappings.size(), [&](size_t i) {
    rows[i] = executor.Evaluate(mappings[i], sources[i]);
  });
  for (size_t i = 0; i < mappings.size(); ++i) {
    if (!rows[i].ok()) return rows[i].status();
    Result<Relation> result = MappingExecutor::ToRelation(
        mappings[i], target.value(), rows[i].value());
    if (!result.ok()) return result.status();
    VADA_RETURN_IF_ERROR(WriteMetadataRelation(kb, std::move(result).value()));
  }
  return Status::OK();
}

Status CfdLearningBody(WranglingState* state, KnowledgeBase* kb) {
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, *kb);
  if (!learned.ok()) return learned.status();
  return WriteMetadataRelation(
      kb, CfdsToRelation(learned.value()->checker.cfds()));
}

Status MappingRepairBody(WranglingState* state, KnowledgeBase* kb) {
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, *kb);
  if (!learned.ok()) return learned.status();
  const CfdChecker& checker = learned.value()->checker;
  if (checker.cfds().empty()) return Status::OK();
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  for (const Mapping& m : mappings.value()) {
    const Relation* raw = kb->FindRelation(m.result_predicate);
    if (raw == nullptr) continue;
    Result<Relation> repaired = checker.Repaired(*raw, "repaired_" + m.id);
    if (!repaired.ok()) return repaired.status();
    VADA_RETURN_IF_ERROR(
        WriteMetadataRelation(kb, std::move(repaired).value()));
  }
  return Status::OK();
}

/// A relation to score and the entity its metric facts name.
using QualitySubject = std::pair<const Relation*, std::string>;

/// `estimator`'s metric facts for every subject, one pool task per
/// subject, concatenated in subject order.
std::vector<QualityMetricFact> EstimateFacts(
    WranglingState* state, const QualityEstimator& estimator,
    const std::vector<QualitySubject>& subjects) {
  std::vector<std::vector<QualityMetricFact>> parts(subjects.size());
  ParallelFor(state->pool.get(), subjects.size(), [&](size_t i) {
    parts[i] = estimator.EstimateFacts(*subjects[i].first, subjects[i].second);
  });
  std::vector<QualityMetricFact> facts;
  for (std::vector<QualityMetricFact>& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(facts));
  }
  return facts;
}

Status QualityMetricsBody(WranglingState* state, KnowledgeBase* kb) {
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  Result<QualityEstimator> estimator = ResultQualityEstimator(state, *kb);
  if (!estimator.ok()) return estimator.status();
  std::vector<QualitySubject> subjects;
  for (const Mapping& m : mappings.value()) {
    const Relation* rel = EffectiveResult(*kb, m);
    if (rel != nullptr) subjects.emplace_back(rel, m.id);
  }
  return WriteMetadataRelation(
      kb, QualityMetricsToRelation(
              EstimateFacts(state, estimator.value(), subjects)));
}

Status SourceQualityBody(WranglingState* state, KnowledgeBase* kb) {
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, *kb);
  if (!learned.ok()) return learned.status();
  QualityEstimator estimator;
  // Source attribute names generally differ from the target vocabulary,
  // so accuracy-vs-reference does not apply here; completeness (and
  // consistency once CFDs exist on matching attribute names) does.
  estimator.SetChecker(learned.value()->consistency_checker());
  std::vector<QualitySubject> subjects;
  for (const std::string& source : SourceNames(*kb)) {
    const Relation* rel = kb->FindRelation(source);
    if (rel != nullptr) subjects.emplace_back(rel, source);
  }
  return WriteMetadataRelation(
      kb, QualityMetricsToRelation(EstimateFacts(state, estimator, subjects),
                                   "source_quality"));
}

Status SourceSelectionBody(WranglingState* state, KnowledgeBase* kb) {
  const Relation* quality_rel = kb->FindRelation("source_quality");
  if (quality_rel == nullptr) return Status::OK();
  Result<std::vector<QualityMetricFact>> parsed =
      QualityMetricsFromRelation(*quality_rel);
  if (!parsed.ok()) return parsed.status();

  // Trust per source: mean of its quality metric values. (Attribute
  // subjects are in the source's own vocabulary, so user-context weights
  // do not apply directly; tuple-level feedback correctness is folded in
  // below when available.)
  std::map<std::string, std::pair<double, size_t>> sums;
  for (const QualityMetricFact& f : parsed.value()) {
    auto& [sum, count] = sums[f.entity];
    sum += f.value;
    ++count;
  }

  Relation trust(Schema::Untyped("source_trust", {"source", "trust"}));
  Relation excluded(Schema::Untyped("excluded_source", {"source"}));
  for (const std::string& source : SourceNames(*kb)) {
    auto it = sums.find(source);
    double score =
        (it == sums.end() || it->second.second == 0)
            ? 1.0
            : it->second.first / static_cast<double>(it->second.second);
    VADA_RETURN_IF_ERROR(trust.InsertUnchecked(
        Tuple({Value::String(source), Value::Double(score)})));
    if (state->config.source_selector.exclude_below_min &&
        score < state->config.source_selector.min_trust) {
      VADA_RETURN_IF_ERROR(
          excluded.InsertUnchecked(Tuple({Value::String(source)})));
    }
  }
  VADA_RETURN_IF_ERROR(WriteMetadataRelation(kb, std::move(trust)));
  return WriteMetadataRelation(kb, std::move(excluded));
}

Status MappingSelectionBody(WranglingState* state, KnowledgeBase* kb) {
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  const Relation* metric_rel = kb->FindRelation("quality_metric");
  std::vector<QualityMetricFact> metrics;
  if (metric_rel != nullptr) {
    Result<std::vector<QualityMetricFact>> parsed =
        QualityMetricsFromRelation(*metric_rel);
    if (!parsed.ok()) return parsed.status();
    metrics = std::move(parsed).value();
  }
  // Keep only metrics about mappings (sources have their own facts).
  std::set<std::string> ids;
  for (const Mapping& m : mappings.value()) ids.insert(m.id);
  std::vector<QualityMetricFact> mapping_metrics;
  for (QualityMetricFact& f : metrics) {
    if (ids.count(f.entity) > 0) mapping_metrics.push_back(std::move(f));
  }

  UserContext user_context;
  if (const Relation* rel = kb->FindRelation("user_context")) {
    Result<UserContext> decoded = UserContext::FromRelation(*rel);
    if (!decoded.ok()) return decoded.status();
    user_context = std::move(decoded).value();
  }
  std::optional<CriterionWeights> weights;
  if (!user_context.empty()) {
    Result<CriterionWeights> derived = user_context.DeriveWeights();
    if (!derived.ok()) return derived.status();
    weights = std::move(derived).value();
  }

  MappingSelector selector(state->config.selector);
  std::vector<MappingScore> scores = selector.Score(
      mappings.value(), mapping_metrics,
      weights.has_value() ? &*weights : nullptr);
  std::vector<std::string> selected = selector.Select(scores);

  Relation rel(Schema::Untyped("selected_mapping", {"id", "score", "rank"}));
  for (size_t rank = 0; rank < selected.size(); ++rank) {
    double score = 0.0;
    for (const MappingScore& s : scores) {
      if (s.mapping_id == selected[rank]) {
        score = s.total;
        break;
      }
    }
    VADA_RETURN_IF_ERROR(rel.InsertUnchecked(
        Tuple({Value::String(selected[rank]), Value::Double(score),
               Value::Int(static_cast<int64_t>(rank))})));
  }
  return WriteMetadataRelation(kb, std::move(rel));
}

Status FusionBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  const Relation* selected_rel = kb->FindRelation("selected_mapping");
  if (selected_rel == nullptr) return Status::OK();
  std::set<std::string> selected;
  for (const Tuple& row : selected_rel->rows()) {
    selected.insert(row.at(0).ToString());
  }

  // Per-source trust (from source selection) weights the fusion votes:
  // a row's weight is the mean trust of its mapping's sources.
  std::map<std::string, double> trust_of;
  if (const Relation* trust = kb->FindRelation("source_trust");
      trust != nullptr) {
    for (const Tuple& row : trust->rows()) {
      std::optional<double> v = row.at(1).AsDouble();
      if (v.has_value()) trust_of[row.at(0).ToString()] = *v;
    }
  }

  // The union of the selected mappings' results, one weight per row. A
  // row reachable through several mappings keeps its highest trust; rows
  // are found by reference into the mapping results, which the KB keeps
  // alive for the whole body.
  Relation unioned(Schema(state->config.result_relation,
                          target.value().attributes()));
  std::vector<double> row_weights;
  std::unordered_map<std::reference_wrapper<const Tuple>, size_t, TupleHash,
                     std::equal_to<Tuple>>
      position_of;
  for (const Mapping& m : mappings.value()) {
    if (selected.count(m.id) == 0) continue;
    const Relation* rel = EffectiveResult(*kb, m);
    if (rel == nullptr) continue;
    double weight = 0.0;
    for (const std::string& src : m.source_relations) {
      auto it = trust_of.find(src);
      weight += (it == trust_of.end()) ? 1.0 : it->second;
    }
    weight /= m.source_relations.empty()
                  ? 1.0
                  : static_cast<double>(m.source_relations.size());
    for (const Tuple& row : rel->rows()) {
      auto [it, added] =
          position_of.try_emplace(std::cref(row), row_weights.size());
      if (added) {
        VADA_RETURN_IF_ERROR(unioned.InsertUnchecked(row));
        row_weights.push_back(weight);
      } else {
        row_weights[it->second] = std::max(row_weights[it->second], weight);
      }
    }
  }

  // Duplicate detection + fusion. Blocking: configured attributes, else
  // "postcode" when the target has one, else unblocked for small inputs.
  DedupOptions dedup = state->config.dedup;
  if (dedup.blocking_attributes.empty() &&
      target.value().AttributeIndex("postcode").has_value()) {
    dedup.blocking_attributes = {"postcode"};
  }
  DuplicateDetector detector(dedup);
  DedupStats dedup_stats;
  Result<DuplicateClusters> clusters =
      detector.Cluster(unioned, &dedup_stats, state->pool.get());
  if (!clusters.ok()) return clusters.status();
  state->dedup_stats += dedup_stats;
  FusionOptions fusion_options;
  fusion_options.row_weights = std::move(row_weights);
  Fuser fuser(fusion_options);
  Result<Relation> fused =
      fuser.Fuse(unioned, clusters.value(), state->config.result_relation);
  if (!fused.ok()) return fused.status();

  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(std::move(fused).value()));
  kb->catalog().SetRole(state->config.result_relation, RelationRole::kResult);
  return Status::OK();
}

Status FeedbackPropagationBody(WranglingState* state, KnowledgeBase* kb) {
  // The relation gates the body (each annotation adds a row, a repeated
  // one included); the items themselves live in the session's store. A
  // reopened durable session recovers the relation and match_penalty but
  // starts with an empty store: keep the recovered penalties until new
  // feedback arrives. Only AddFeedback fills the store, and it always
  // moves the relation, so the relation stays this body's key.
  const Relation* feedback = kb->FindRelation("feedback");
  if (feedback == nullptr || feedback->empty() || state->feedback.empty()) {
    return Status::OK();
  }
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();

  // Lineage: each mapping's raw and repaired results, probed in place and
  // looked up even when every item is attributed (a memo-free read set).
  MappingOutputs outputs;
  for (const Mapping& m : mappings.value()) {
    for (const Relation* rel : {kb->FindRelation(m.result_predicate),
                                kb->FindRelation("repaired_" + m.id)}) {
      if (rel != nullptr) outputs[m.id].push_back(rel);
    }
  }

  std::vector<MatchCandidate> matches = ReadMatches(*kb, "match");
  FeedbackPropagator propagator(state->config.propagator);

  // Attribute any not-yet-attributed items against the current lineage.
  // Attributions are memoised in the session state: the penalty they
  // induce typically changes the mappings, which would erase the lineage
  // and (without the memo) flip the penalty straight back — a livelock.
  const std::vector<FeedbackItem>& items = state->feedback.items();
  for (size_t i = 0; i < items.size(); ++i) {
    if (state->attributed_feedback_items.count(i) > 0) continue;
    std::vector<MatchAttribution> part =
        propagator.AttributeItem(items, i, mappings.value(), outputs, matches);
    if (part.empty()) continue;  // no lineage yet; retry on a later run
    state->attributed_feedback_items.insert(i);
    state->feedback_attributions.insert(state->feedback_attributions.end(),
                                        part.begin(), part.end());
  }

  // Persist the multiplicative factors. They are a pure function of the
  // memoised attributions, so rewriting them is idempotent.
  Relation penalties(Schema::Untyped(
      "match_penalty",
      {"source_relation", "source_attribute", "target_attribute", "factor"}));
  for (const auto& [key, factor] :
       propagator.FactorsFrom(state->feedback_attributions)) {
    if (factor > 0.999 && factor < 1.001) continue;
    penalties.InsertUnchecked(
        Tuple({Value::String(std::get<0>(key)), Value::String(std::get<1>(key)),
               Value::String(std::get<2>(key)), Value::Double(factor)}));
  }
  return WriteMetadataRelation(kb, std::move(penalties));
}

std::unique_ptr<Transducer> Make(const char* name, const char* activity,
                                 std::string dependency, WranglingState* state,
                                 Status (*body)(WranglingState*,
                                                KnowledgeBase*)) {
  return std::make_unique<FunctionTransducer>(
      name, activity, std::move(dependency),
      [state, body](KnowledgeBase* kb) { return body(state, kb); });
}

}  // namespace

Status RegisterStandardTransducers(TransducerRegistry* registry,
                                   WranglingState* state) {
  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "schema_matching", "matching",
      "ready() :- sys_relation_role(_S, \"source\"), "
      "sys_relation_role(_T, \"target\").",
      state, &SchemaMatchingBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "instance_matching", "matching",
      "ready() :- sys_relation_role(S, \"source\"), "
      "sys_relation_nonempty(S), data_context(R, _K, _TA, _CA), "
      "sys_relation_nonempty(R).",
      state, &InstanceMatchingBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "match_combination", "matching",
      "ready() :- sys_relation_nonempty(\"match_schema\").\n"
      "ready() :- sys_relation_nonempty(\"match_instance\").",
      state, &MatchCombinationBody)));

  VADA_RETURN_IF_ERROR(registry->Add(
      Make("mapping_generation", "mapping",
           "ready() :- sys_relation_nonempty(\"match\").", state,
           &MappingGenerationBody)));

  VADA_RETURN_IF_ERROR(registry->Add(
      Make("mapping_execution", "execution",
           "ready() :- sys_relation_nonempty(\"mapping\").", state,
           &MappingExecutionBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "cfd_learning", "quality",
      "ready() :- data_context(R, \"reference\", _TA, _CA), "
      "sys_relation_nonempty(R).\n"
      "ready() :- data_context(R, \"master\", _TA, _CA), "
      "sys_relation_nonempty(R).",
      state, &CfdLearningBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "mapping_repair", "repair",
      "ready() :- sys_relation_nonempty(\"cfd\"), "
      "sys_relation_nonempty(\"mapping\").",
      state, &MappingRepairBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "quality_metrics", "quality",
      "ready() :- mapping(_I, _T, _S, _C, P, _X), sys_relation_nonempty(P).",
      state, &QualityMetricsBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "source_quality", "quality",
      "ready() :- sys_relation_role(S, \"source\"), "
      "sys_relation_nonempty(S).",
      state, &SourceQualityBody)));

  VADA_RETURN_IF_ERROR(registry->Add(
      Make("source_selection", "selection",
           "ready() :- sys_relation_nonempty(\"source_quality\").", state,
           &SourceSelectionBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "mapping_selection", "selection",
      "ready() :- sys_relation_nonempty(\"mapping\"), "
      "sys_relation_nonempty(\"quality_metric\").",
      state, &MappingSelectionBody)));

  VADA_RETURN_IF_ERROR(registry->Add(
      Make("fusion", "fusion",
           "ready() :- sys_relation_nonempty(\"selected_mapping\").", state,
           &FusionBody)));

  VADA_RETURN_IF_ERROR(registry->Add(Make(
      "feedback_propagation", "feedback",
      "ready() :- sys_relation_nonempty(\"feedback\"), "
      "sys_relation_nonempty(\"mapping\").",
      state, &FeedbackPropagationBody)));

  return Status::OK();
}

Result<DataContext> ReadDataContext(const KnowledgeBase& kb) {
  const Relation* rel = kb.FindRelation("data_context");
  if (rel == nullptr) return DataContext();
  return DataContext::FromRelation(*rel);
}

Result<const LearnedCfds*> LearnedCfdsOf(WranglingState* state,
                                         const KnowledgeBase& kb) {
  LearnedCfds& cache = state->learned_cfds;
  if (cache.key.Holds(kb)) return &cache;
  Result<DataContext> context = ReadDataContext(kb);
  if (!context.ok()) return context.status();
  ReadSet reads;
  reads.relations.insert("data_context");
  CfdLearner learner(state->config.cfd_learner);
  std::vector<Cfd> cfds;
  std::optional<Relation> evidence;
  for (const DataContextBinding& binding : context.value().bindings()) {
    if (binding.kind != RelationRole::kReference &&
        binding.kind != RelationRole::kMaster) {
      continue;
    }
    if (binding.correspondences.size() < 2) continue;  // no pair to relate
    reads.relations.insert(binding.context_relation);
    const Relation* ctx = kb.FindRelation(binding.context_relation);
    if (ctx == nullptr || ctx->empty()) continue;

    // Project onto corresponded attributes, renamed into the target
    // vocabulary, so learned CFDs speak about target attributes.
    std::vector<std::string> ctx_attrs;
    std::vector<Attribute> tgt_attrs;
    for (const ContextCorrespondence& c : binding.correspondences) {
      ctx_attrs.push_back(c.context_attribute);
      tgt_attrs.push_back(Attribute{c.target_attribute, AttributeType::kAny});
    }
    Result<Relation> projected = ctx->Project(
        ctx_attrs, "cfd_learning_" + binding.context_relation);
    if (!projected.ok()) return projected.status();
    Relation renamed(
        Schema("cfd_learning_" + binding.context_relation, tgt_attrs));
    for (const Tuple& row : projected.value().rows()) {
      VADA_RETURN_IF_ERROR(renamed.InsertUnchecked(row));
    }

    std::vector<Cfd> learned = learner.Learn(renamed);
    cfds.insert(cfds.end(), learned.begin(), learned.end());
    if (!evidence.has_value()) evidence = std::move(renamed);
  }
  cache.key = ReadSetKey(kb, std::move(reads));
  cache.checker =
      CfdChecker(std::move(cfds), evidence.has_value() ? &*evidence : nullptr);
  ++state->quality_context_compiles;
  return &cache;
}

Result<QualityEstimator> ResultQualityEstimator(WranglingState* state,
                                                const KnowledgeBase& kb) {
  Result<DataContext> context = ReadDataContext(kb);
  if (!context.ok()) return context.status();
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, kb);
  if (!learned.ok()) return learned.status();
  QualityEstimator estimator;
  // Accuracy reference: the first reference binding with instances.
  for (const DataContextBinding* binding :
       context.value().BindingsOfKind(RelationRole::kReference)) {
    const Relation* ref = kb.FindRelation(binding->context_relation);
    if (ref != nullptr && !ref->empty()) {
      estimator.SetReference(ref, binding->correspondences);
      break;
    }
  }
  estimator.SetChecker(learned.value()->consistency_checker());
  // Relevance: the first master binding with instances.
  for (const DataContextBinding* binding :
       context.value().BindingsOfKind(RelationRole::kMaster)) {
    const Relation* master = kb.FindRelation(binding->context_relation);
    if (master != nullptr && !master->empty()) {
      estimator.SetMaster(master, binding->correspondences);
      break;
    }
  }
  return estimator;
}

}  // namespace vada
