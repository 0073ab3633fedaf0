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

/// The target schema, read as a schema alone (KnowledgeBase::FindSchema).
Result<Schema> TargetSchema(const KnowledgeBase& kb,
                            const WranglingState& state) {
  const Schema* target = kb.FindSchema(state.target_relation);
  if (target == nullptr) {
    return Status::FailedPrecondition("target relation " +
                                      state.target_relation +
                                      " missing from knowledge base");
  }
  return *target;
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
/// when the repair transducer produced one, else the raw result. Adds the
/// relations it looked up to `reads`, when given.
const Relation* EffectiveResult(const KnowledgeBase& kb, const Mapping& m,
                                ReadSet* reads = nullptr) {
  const std::string repaired_name = "repaired_" + m.id;
  if (reads != nullptr) reads->relations.insert(repaired_name);
  const Relation* repaired = kb.FindRelation(repaired_name);
  if (repaired != nullptr) return repaired;
  if (reads != nullptr) reads->relations.insert(m.result_predicate);
  return kb.FindRelation(m.result_predicate);
}

/// Whether `cache` holds piece `id` under a key that still holds.
/// Checking the key looks up every relation it names, so a reused piece
/// leaves the read set its recomputation would (DESIGN.md §5p).
template <typename Kept>
bool Reusable(const std::map<std::string, CachedPiece<Kept>>& cache,
              const std::string& id, const KnowledgeBase& kb) {
  auto it = cache.find(id);
  return it != cache.end() && it->second.key.Holds(kb);
}

/// Drops the entries of pieces not in `live`.
template <typename Cache>
void KeepOnly(Cache* cache, const std::set<std::string>& live) {
  for (auto it = cache->begin(); it != cache->end();) {
    it = live.count(it->first) > 0 ? std::next(it) : cache->erase(it);
  }
}

/// Books `run` of `total` pieces as run and the rest as reused.
void CountPieces(WranglingState* state, const char* transducer, size_t run,
                 size_t total) {
  PieceCounts& counts = state->piece_counts[transducer];
  counts.run += run;
  counts.reused += total - run;
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
    const Schema* schema = kb->FindSchema(source);
    if (schema == nullptr) continue;
    std::vector<MatchCandidate> matches =
        matcher.Match(*schema, target.value());
    all.insert(all.end(), matches.begin(), matches.end());
  }
  return WriteMetadataRelation(kb, MatchesToRelation(all, "match_schema"));
}

Status InstanceMatchingBody(WranglingState* state, KnowledgeBase* kb) {
  Result<Schema> target = TargetSchema(*kb, *state);
  if (!target.ok()) return target.status();
  Result<DataContext> context = ReadDataContext(*kb);
  if (!context.ok()) return context.status();
  // One piece per (source, binding) pair, over relations looked up here,
  // keyed on the source, the context relation, the data context and the
  // target schema. Only the pieces whose key no longer holds are matched.
  struct MatchTask {
    std::string id;
    const Relation* source;
    const Relation* instances;
    const DataContextBinding* binding;
  };
  std::map<std::string, CachedPiece<std::vector<MatchCandidate>>>& cache =
      state->pieces.matching;
  std::vector<MatchTask> tasks;
  std::vector<size_t> misses;
  for (const std::string& source : SourceNames(*kb)) {
    const Relation* src = kb->FindRelation(source);
    if (src == nullptr || src->empty()) continue;
    for (const DataContextBinding& binding : context.value().bindings()) {
      const Relation* ctx = kb->FindRelation(binding.context_relation);
      if (ctx == nullptr || ctx->empty()) continue;
      std::string id = source + '\x1f' + binding.context_relation + '\x1f' +
                       RelationRoleName(binding.kind);
      if (!Reusable(cache, id, *kb)) misses.push_back(tasks.size());
      tasks.push_back(MatchTask{std::move(id), src, ctx, &binding});
    }
  }
  InstanceMatcher matcher(state->config.instance_matcher);
  std::vector<std::vector<MatchCandidate>> kept(misses.size());
  ParallelFor(state->pool.get(), misses.size(), [&](size_t k) {
    const MatchTask& task = tasks[misses[k]];
    std::vector<std::pair<std::string, std::string>> rename;
    for (const ContextCorrespondence& c : task.binding->correspondences) {
      rename.push_back({c.context_attribute, c.target_attribute});
    }
    for (MatchCandidate& m :
         matcher.Match(*task.source, *task.instances,
                       target.value().relation_name(), rename)) {
      // Keep only candidates that land on actual target attributes.
      if (target.value().AttributeIndex(m.target_attribute).has_value()) {
        kept[k].push_back(std::move(m));
      }
    }
  });
  CountPieces(state, "instance_matching", misses.size(), tasks.size());
  for (size_t k = 0; k < misses.size(); ++k) {
    const MatchTask& task = tasks[misses[k]];
    ReadSet reads;
    reads.relations = {task.source->name(), task.instances->name(),
                       "data_context"};
    reads.schemas.insert(state->target_relation);
    // Copied here, on the calling thread: the cache outlives the call.
    cache[task.id] = {ReadSetKey(*kb, std::move(reads)), kept[k]};
  }
  std::vector<MatchCandidate> all;
  std::set<std::string> live;
  for (const MatchTask& task : tasks) {
    const std::vector<MatchCandidate>& part = cache.at(task.id).kept;
    all.insert(all.end(), part.begin(), part.end());
    live.insert(task.id);
  }
  KeepOnly(&cache, live);
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
    const Schema* schema = kb->FindSchema(name);
    if (schema != nullptr) sources.push_back(*schema);
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
  // One piece per mapping, keyed on its sources, the target schema, its
  // result and the mapping itself. The pieces whose key no longer holds
  // are evaluated, one task each, over source snapshots taken here; their
  // results become relations here too, written in mapping order.
  std::map<std::string, CachedPiece<std::string>>& cache =
      state->pieces.execution;
  std::vector<std::string> signatures;
  std::vector<size_t> misses;
  std::set<std::string> live;
  for (size_t i = 0; i < mappings.size(); ++i) {
    const Mapping& m = mappings[i];
    std::string& signature = signatures.emplace_back(m.result_predicate);
    for (const std::string& source : m.source_relations) {
      signature += '\x1f' + source;
    }
    signature += '\x1f' + m.rule_text;
    auto it = cache.find(m.id);
    if (it == cache.end() || it->second.kept != signature ||
        !it->second.key.Holds(*kb)) {
      misses.push_back(i);
    }
    live.insert(m.id);
  }
  std::vector<SourceSnapshots> sources;
  for (size_t i : misses) {
    sources.push_back(executor.Snapshots(mappings[i], *kb));
  }
  std::vector<Result<MappingRows>> rows(misses.size(),
                                        Status::Internal("not evaluated"));
  ParallelFor(state->pool.get(), misses.size(), [&](size_t k) {
    rows[k] = executor.Evaluate(mappings[misses[k]], sources[k]);
  });
  CountPieces(state, "mapping_execution", misses.size(), mappings.size());
  for (size_t k = 0; k < misses.size(); ++k) {
    const Mapping& m = mappings[misses[k]];
    if (!rows[k].ok()) return rows[k].status();
    Result<Relation> result =
        MappingExecutor::ToRelation(m, target.value(), rows[k].value());
    if (!result.ok()) return result.status();
    VADA_RETURN_IF_ERROR(WriteMetadataRelation(kb, std::move(result).value()));
    ReadSet reads;
    reads.relations.insert(m.source_relations.begin(),
                           m.source_relations.end());
    reads.relations.insert(m.result_predicate);
    reads.schemas.insert(state->target_relation);
    cache[m.id] = {ReadSetKey(*kb, std::move(reads)),
                   std::move(signatures[misses[k]])};
  }
  KeepOnly(&cache, live);
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
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  std::map<std::string, ReadSetKey>& cache = state->pieces.repair;
  if (checker.cfds().empty()) {
    // Nothing to repair against: drop the repairs of CFDs that no longer
    // hold, so every consumer reads the raw results.
    cache.clear();
    for (const Mapping& m : mappings.value()) {
      const std::string name = "repaired_" + m.id;
      if (kb->HasRelation(name)) VADA_RETURN_IF_ERROR(kb->DropRelation(name));
    }
    return Status::OK();
  }
  // One piece per mapping result, keyed on the raw result, its repair and
  // the relations the checker was compiled from.
  size_t pieces = 0;
  size_t run = 0;
  std::set<std::string> live;
  for (const Mapping& m : mappings.value()) {
    const Relation* raw = kb->FindRelation(m.result_predicate);
    if (raw == nullptr) continue;
    ++pieces;
    live.insert(m.id);
    auto it = cache.find(m.id);
    if (it != cache.end() && it->second.Holds(*kb)) continue;
    ++run;
    const std::string name = "repaired_" + m.id;
    Result<Relation> repaired = checker.Repaired(*raw, name);
    if (!repaired.ok()) return repaired.status();
    VADA_RETURN_IF_ERROR(
        WriteMetadataRelation(kb, std::move(repaired).value()));
    ReadSet reads = learned.value()->key.reads();
    reads.relations.insert({m.result_predicate, name});
    cache[m.id] = ReadSetKey(*kb, std::move(reads));
  }
  CountPieces(state, "mapping_repair", run, pieces);
  KeepOnly(&cache, live);
  return Status::OK();
}

/// A relation to score, the entity its metric facts name and what was
/// looked up to find it.
struct QualitySubject {
  const Relation* relation;
  std::string entity;
  ReadSet reads;
};

/// Every subject's metric facts, in subject order. Subjects with a
/// relation are scored, one pool task each, by the estimator
/// `make_estimator` builds (only when there is one to score; it adds what
/// it looked up to the ReadSet it is given, which joins each scored
/// subject's key); the others, reused, come from `cache`. Books the
/// pieces under `transducer` and drops the entries of subjects that no
/// longer exist.
template <typename MakeEstimator>
Result<std::vector<QualityMetricFact>> ScoreSubjects(
    WranglingState* state, const KnowledgeBase& kb, const char* transducer,
    std::vector<QualitySubject> subjects,
    std::map<std::string, CachedPiece<std::vector<QualityMetricFact>>>*
        cache,
    MakeEstimator make_estimator) {
  std::vector<size_t> misses;
  std::set<std::string> live;
  for (size_t i = 0; i < subjects.size(); ++i) {
    if (subjects[i].relation != nullptr) misses.push_back(i);
    live.insert(subjects[i].entity);
  }
  if (!misses.empty()) {
    ReadSet shared;
    Result<QualityEstimator> estimator = make_estimator(&shared);
    if (!estimator.ok()) return estimator.status();
    std::vector<std::vector<QualityMetricFact>> parts(misses.size());
    ParallelFor(state->pool.get(), misses.size(), [&](size_t k) {
      const QualitySubject& subject = subjects[misses[k]];
      parts[k] = estimator.value().EstimateFacts(*subject.relation,
                                                 subject.entity);
    });
    for (size_t k = 0; k < misses.size(); ++k) {
      QualitySubject& subject = subjects[misses[k]];
      subject.reads.Merge(shared);
      // Copied here, on the calling thread: the cache outlives the call.
      (*cache)[subject.entity] = {ReadSetKey(kb, std::move(subject.reads)),
                                  parts[k]};
    }
  }
  CountPieces(state, transducer, misses.size(), subjects.size());
  std::vector<QualityMetricFact> facts;
  for (const QualitySubject& subject : subjects) {
    const std::vector<QualityMetricFact>& part = cache->at(subject.entity).kept;
    facts.insert(facts.end(), part.begin(), part.end());
  }
  KeepOnly(cache, live);
  return facts;
}

Status QualityMetricsBody(WranglingState* state, KnowledgeBase* kb) {
  Result<std::vector<Mapping>> mappings = ReadMappings(*kb);
  if (!mappings.ok()) return mappings.status();
  // One subject per mapping with a result, keyed on the result it scores
  // (and the raw result when there is no repair) plus everything the
  // estimator reads: the data context, its reference and master relations
  // and the compiled CFDs. A reused subject has a null relation.
  std::map<std::string, CachedPiece<std::vector<QualityMetricFact>>>& cache =
      state->pieces.quality;
  std::vector<QualitySubject> subjects;
  for (const Mapping& m : mappings.value()) {
    if (Reusable(cache, m.id, *kb)) {
      subjects.push_back({nullptr, m.id, {}});
      continue;
    }
    ReadSet reads;
    const Relation* rel = EffectiveResult(*kb, m, &reads);
    if (rel != nullptr) subjects.push_back({rel, m.id, std::move(reads)});
  }
  Result<std::vector<QualityMetricFact>> facts = ScoreSubjects(
      state, *kb, "quality_metrics", std::move(subjects), &cache,
      [&](ReadSet* reads) {
        return ResultQualityEstimator(state, *kb, reads);
      });
  if (!facts.ok()) return facts.status();
  return WriteMetadataRelation(kb, QualityMetricsToRelation(facts.value()));
}

Status SourceQualityBody(WranglingState* state, KnowledgeBase* kb) {
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, *kb);
  if (!learned.ok()) return learned.status();
  // One subject per source, keyed on the source and the relations the
  // checker was compiled from.
  std::map<std::string, CachedPiece<std::vector<QualityMetricFact>>>& cache =
      state->pieces.source_quality;
  std::vector<QualitySubject> subjects;
  for (const std::string& source : SourceNames(*kb)) {
    if (Reusable(cache, source, *kb)) {
      subjects.push_back({nullptr, source, {}});
      continue;
    }
    const Relation* rel = kb->FindRelation(source);
    ReadSet reads;
    reads.relations.insert(source);
    if (rel != nullptr) subjects.push_back({rel, source, std::move(reads)});
  }
  Result<std::vector<QualityMetricFact>> facts = ScoreSubjects(
      state, *kb, "source_quality", std::move(subjects), &cache,
      [&](ReadSet* reads) {
        reads->Merge(learned.value()->key.reads());
        // Source attribute names generally differ from the target
        // vocabulary, so accuracy-vs-reference does not apply here;
        // completeness (and consistency once CFDs exist on matching
        // attribute names) does.
        QualityEstimator estimator;
        estimator.SetChecker(learned.value()->consistency_checker());
        return Result<QualityEstimator>(std::move(estimator));
      });
  if (!facts.ok()) return facts.status();
  return WriteMetadataRelation(
      kb, QualityMetricsToRelation(facts.value(), "source_quality"));
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
  // One piece per block: a block with the rows it had in the previous
  // call's union reuses that call's pairs (DedupMemo).
  DuplicateDetector detector(dedup);
  DedupStats dedup_stats;
  Result<DuplicateClusters> clusters = detector.Cluster(
      unioned, &dedup_stats, state->pool.get(), &state->pieces.dedup);
  if (!clusters.ok()) return clusters.status();
  state->dedup_stats += dedup_stats;
  CountPieces(state, "fusion", dedup_stats.blocks_scored,
              dedup_stats.blocks_scored + dedup_stats.blocks_reused);
  FusionOptions fusion_options;
  fusion_options.row_weights = std::move(row_weights);
  Fuser fuser(fusion_options);
  Result<Relation> fused =
      fuser.Fuse(unioned, clusters.value(), state->config.result_relation);
  if (!fused.ok()) return fused.status();
  state->pieces.dedup.Commit(std::move(unioned));

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
      "ready() :- sys_relation_role(\"cfd\", \"metadata\"), "
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
                                                const KnowledgeBase& kb,
                                                ReadSet* reads) {
  Result<DataContext> context = ReadDataContext(kb);
  if (!context.ok()) return context.status();
  Result<const LearnedCfds*> learned = LearnedCfdsOf(state, kb);
  if (!learned.ok()) return learned.status();
  ReadSet looked_up = learned.value()->key.reads();
  looked_up.relations.insert("data_context");
  auto find = [&](const std::string& name) {
    looked_up.relations.insert(name);
    return kb.FindRelation(name);
  };
  QualityEstimator estimator;
  // Accuracy reference: the first reference binding with instances.
  for (const DataContextBinding* binding :
       context.value().BindingsOfKind(RelationRole::kReference)) {
    const Relation* ref = find(binding->context_relation);
    if (ref != nullptr && !ref->empty()) {
      estimator.SetReference(ref, binding->correspondences);
      break;
    }
  }
  estimator.SetChecker(learned.value()->consistency_checker());
  // Relevance: the first master binding with instances.
  for (const DataContextBinding* binding :
       context.value().BindingsOfKind(RelationRole::kMaster)) {
    const Relation* master = find(binding->context_relation);
    if (master != nullptr && !master->empty()) {
      estimator.SetMaster(master, binding->correspondences);
      break;
    }
  }
  if (reads != nullptr) reads->Merge(looked_up);
  return estimator;
}

size_t PieceCaches::ApproxBytes() const {
  auto str = [](const std::string& s) { return sizeof(s) + s.capacity(); };
  size_t bytes = sizeof(*this) + dedup.ApproxBytes();
  for (const auto& [id, piece] : execution) {
    bytes += str(id) + str(piece.kept) + piece.key.ApproxBytes();
  }
  for (const auto& [id, key] : repair) bytes += str(id) + key.ApproxBytes();
  for (const auto* cache : {&quality, &source_quality}) {
    for (const auto& [id, piece] : *cache) {
      bytes += str(id) + piece.key.ApproxBytes();
      for (const QualityMetricFact& f : piece.kept) {
        bytes += str(f.entity) + str(f.metric) + str(f.subject) +
                 sizeof(f.value);
      }
    }
  }
  for (const auto& [id, piece] : matching) {
    bytes += str(id) + piece.key.ApproxBytes();
    for (const MatchCandidate& m : piece.kept) {
      bytes += str(m.source_relation) + str(m.source_attribute) +
               str(m.target_relation) + str(m.target_attribute) +
               str(m.matcher) + sizeof(m.score);
    }
  }
  return bytes;
}

}  // namespace vada
