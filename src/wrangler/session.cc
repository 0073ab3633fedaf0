#include "wrangler/session.h"

#include <map>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"
#include "datalog/symbol_table.h"
#include "mapping/executor.h"
#include "mapping/mapping.h"
#include "obs/process_stats.h"
#include "transducer/trace_export.h"

namespace vada {

namespace {

/// Applies one analysis report under the configured enforcement level:
/// warnings are logged either way; errors (and, under kStrict, warnings)
/// fail the registration.
Status EnforceAnalysis(const datalog::analysis::AnalysisReport& report,
                       AnalysisEnforcement enforcement,
                       const std::string& context) {
  using datalog::analysis::Severity;
  for (const datalog::analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::kWarning) {
      VADA_LOG(kWarning, "wrangler") << context << ": " << d.ToString();
    }
  }
  if (report.error_count() > 0) return report.ToStatus(context);
  if (enforcement == AnalysisEnforcement::kStrict) {
    for (const datalog::analysis::Diagnostic& d : report.diagnostics) {
      if (d.severity == Severity::kWarning) {
        return Status::InvalidArgument(context +
                                       " (strict analysis): " + d.ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace

WranglingSession::WranglingSession(WranglerConfig config) {
  state_ = std::make_unique<WranglingState>();
  state_->config = std::move(config);
  obs_ = std::make_unique<obs::ObsContext>(state_->config.obs);
  if (obs_->sessions() != nullptr) {
    session_handle_ =
        obs_->sessions()->Register(state_->config.session_name);
  }
  if (state_->config.durability.enabled) {
    // Recover committed durable state into the (still empty) KB before
    // any input is registered; failures are surfaced by Run(), since
    // constructors cannot return a Status.
    Result<std::unique_ptr<DurabilityManager>> opened =
        DurabilityManager::Open(state_->config.durability, &kb_,
                                obs_->metrics());
    if (opened.ok()) {
      durability_ = std::move(opened).value();
      if (durability_->recovery().recovered) {
        VADA_LOG(kInfo, "wrangler")
            << "durability: " << durability_->recovery().ToString();
      }
    } else {
      durability_open_status_ = opened.status();
      VADA_LOG(kWarning, "wrangler")
          << "durability open failed: " << opened.status().ToString();
    }
  }
  registry_.SetDecorator(state_->config.transducer_decorator);
  if (obs_->metrics() != nullptr) {
    state_->snapshot_cache.SetCounters(
        obs_->metrics()->GetCounter(
            "vada_snapshot_cache_hits_total",
            "Relation loads (dependency scans and mapping sources) served "
            "from the snapshot cache without copying"),
        obs_->metrics()->GetCounter(
            "vada_snapshot_cache_misses_total",
            "Relation loads (dependency scans and mapping sources) that "
            "(re)built a snapshot"));
  }
  OrchestratorOptions orch_options;
  orch_options.obs = obs_.get();
  orch_options.failure_policy = state_->config.fault_tolerance;
  orch_options.snapshot_cache = &state_->snapshot_cache;
  orch_options.planner = state_->config.planner;
  orchestrator_ = std::make_unique<NetworkTransducer>(
      &registry_,
      std::make_unique<ActivityPriorityPolicy>(
          ActivityPriorityPolicy::DefaultActivityOrder()),
      orch_options);
}

Status WranglingSession::SetTargetSchema(const Schema& target) {
  VADA_RETURN_IF_ERROR(target.Validate());
  if (!state_->target_relation.empty()) {
    return Status::FailedPrecondition("target schema already set to " +
                                      state_->target_relation);
  }
  // EnsureRelation, not CreateRelation: with durability on, recovery may
  // have restored this relation (with rows) before the caller re-declares
  // the same target.
  VADA_RETURN_IF_ERROR(kb_.EnsureRelation(target));
  kb_.catalog().SetRole(target.relation_name(), RelationRole::kTarget);
  state_->target_relation = target.relation_name();
  if (!transducers_registered_) {
    VADA_RETURN_IF_ERROR(
        RegisterStandardTransducers(&registry_, state_.get()));
    // The standard suite goes through the same registration-time
    // analysis as user transducers; it is expected to pass kStrict.
    for (const std::unique_ptr<Transducer>& t : registry_.transducers()) {
      VADA_RETURN_IF_ERROR(ValidateTransducer(*t));
    }
    transducers_registered_ = true;
  }
  return Status::OK();
}

Status WranglingSession::AddSource(const Relation& data) {
  VADA_RETURN_IF_ERROR(kb_.InsertAll(data));
  kb_.catalog().SetRole(data.name(), RelationRole::kSource);
  return Status::OK();
}

Status WranglingSession::AddDataContext(
    const Relation& data, RelationRole kind,
    std::vector<ContextCorrespondence> correspondences) {
  // The bindings live only in the data_context relation (the one the
  // transducer dependencies quantify over and the bodies decode), so a
  // recovered session keeps them.
  Result<DataContext> context = ReadDataContext(kb_);
  if (!context.ok()) return context.status();
  DataContextBinding binding;
  binding.context_relation = data.name();
  binding.kind = kind;
  binding.correspondences = std::move(correspondences);
  VADA_RETURN_IF_ERROR(context.value().AddBinding(std::move(binding)));
  VADA_RETURN_IF_ERROR(kb_.InsertAll(data));
  kb_.catalog().SetRole(data.name(), kind);
  return kb_.ReplaceRelationIfChanged(context.value().ToRelation());
}

Status WranglingSession::SetUserContext(const UserContext& user_context) {
  // Validate before accepting: weights must be derivable.
  if (!user_context.empty()) {
    Result<CriterionWeights> weights = user_context.DeriveWeights();
    if (!weights.ok()) return weights.status();
  }
  return kb_.ReplaceRelationIfChanged(user_context.ToRelation());
}

Status WranglingSession::AddFeedback(const FeedbackItem& item) {
  // Appends one row rather than rewriting the relation: a repeated
  // annotation gets its own `seq`, so it moves the relation and feedback
  // propagation runs for it.
  const Schema schema = FeedbackStore::RelationSchema();
  const std::string& name = schema.relation_name();
  // A durable directory written before the `seq` column existed recovers
  // feedback(tuple_key, attribute, polarity): number its rows in order.
  const Relation* old = kb_.FindRelation(name);
  if (old != nullptr &&
      old->schema() ==
          Schema::Untyped(name, {"tuple_key", "attribute", "polarity"})) {
    Relation numbered(schema);
    for (const Tuple& row : old->rows()) {
      VADA_RETURN_IF_ERROR(numbered.InsertUnchecked(
          Tuple({row.at(0), row.at(1), row.at(2),
                 Value::Int(static_cast<int64_t>(numbered.size()))})));
    }
    VADA_RETURN_IF_ERROR(kb_.DropRelation(name));
    VADA_RETURN_IF_ERROR(kb_.ReplaceRelation(std::move(numbered)));
  }
  VADA_RETURN_IF_ERROR(kb_.EnsureRelation(schema));
  const int64_t seq = static_cast<int64_t>(kb_.FindRelation(name)->size());
  VADA_RETURN_IF_ERROR(kb_.Insert(name, FeedbackStore::ToRow(item, seq)));
  state_->feedback.Add(item);
  return Status::OK();
}

Status WranglingSession::AddTransducer(std::unique_ptr<Transducer> transducer) {
  if (transducer == nullptr) {
    return Status::InvalidArgument("transducer is null");
  }
  VADA_RETURN_IF_ERROR(ValidateTransducer(*transducer));
  return registry_.Add(std::move(transducer));
}

Status WranglingSession::ValidateTransducer(const Transducer& transducer) const {
  namespace an = datalog::analysis;
  const AnalysisEnforcement enforcement = state_->config.analysis;
  if (enforcement == AnalysisEnforcement::kOff) return Status::OK();
  // Open-world at registration time: most EDB predicates in transducer
  // Vadalog are produced later, by other transducers, so unknown
  // predicates cannot be diagnosed — but anything the catalog does know
  // (sys_* control relations, already-registered KB relations) is
  // checked for arity and constant types.
  an::PredicateCatalog catalog = an::PredicateCatalog::FromKnowledgeBase(kb_);

  an::AnalyzerOptions dep_options;
  dep_options.goal_predicate = "ready";
  dep_options.unknown_predicates = an::UnknownPredicatePolicy::kIgnore;
  VADA_RETURN_IF_ERROR(EnforceAnalysis(
      an::ProgramAnalyzer(dep_options)
          .AnalyzeSource(transducer.input_dependency(), &catalog),
      enforcement, "transducer " + transducer.name() + " input dependency"));

  if (const std::string* program = transducer.vadalog_program()) {
    an::AnalyzerOptions prog_options;
    prog_options.unknown_predicates = an::UnknownPredicatePolicy::kIgnore;
    VADA_RETURN_IF_ERROR(EnforceAnalysis(
        an::ProgramAnalyzer(prog_options).AnalyzeSource(*program, &catalog),
        enforcement, "transducer " + transducer.name() + " program"));
  }
  return Status::OK();
}

Status WranglingSession::Run(OrchestrationStats* stats) {
  VADA_RETURN_IF_ERROR(durability_open_status_);
  if (state_->target_relation.empty()) {
    return Status::FailedPrecondition(
        "no target schema: call SetTargetSchema first");
  }
  // The workers start with the first Run: a session that never runs
  // starts none.
  const size_t threads = state_->config.parallelism.threads;
  if (threads > 1 && state_->pool == nullptr) {
    state_->pool = std::make_unique<ThreadPool>(threads - 1);
  }
  obs::MetricsRegistry* m = obs_->metrics();
  obs::Histogram* run_hist =
      m == nullptr ? nullptr
                   : m->GetHistogram(
                         "vada_session_run_seconds",
                         "WranglingSession::Run wall time",
                         obs::Histogram::DefaultLatencyBucketsSeconds());
  Status status;
  {
    obs::ScopedSpan run_span(obs_->spans(), run_hist, "session.run",
                             "session");
    status = orchestrator_->Run(&kb_, stats);
  }
  if (m != nullptr) {
    m->GetCounter("vada_session_runs", "WranglingSession::Run invocations")
        ->Increment();
    if (state_->pool != nullptr) {
      // The pool's lifetime count, published as the delta since the
      // previous Run.
      const uint64_t total = state_->pool->tasks_executed();
      m->GetCounter("vada_pool_tasks_total",
                    "Transducer-body tasks run through the session's worker "
                    "pool")
          ->Increment(total - pool_tasks_published_);
      pool_tasks_published_ = total;
    }
    // Pieces each body ran and reused, as the delta since the previous
    // Run.
    for (const auto& [transducer, counts] : state_->piece_counts) {
      PieceCounts& published = pieces_published_[transducer];
      auto publish = [&](const char* outcome, uint64_t total,
                         uint64_t* done) {
        if (total == *done) return;
        m->GetCounter("vada_body_pieces_total",
                      "Independent pieces of transducer bodies run, or "
                      "reused because nothing they read had moved",
                      {{"transducer", transducer}, {"outcome", outcome}})
            ->Increment(total - *done);
        *done = total;
      };
      publish("run", counts.run, &published.run);
      publish("reused", counts.reused, &published.reused);
    }
    PublishKbGauges();
  }
  // A wrangle that succeeded in memory but whose WAL trail died is not a
  // durable success; report the sticky durability failure.
  if (status.ok() && durability_ != nullptr) status = durability_->status();
  return status;
}

Status WranglingSession::Checkpoint() {
  VADA_RETURN_IF_ERROR(durability_open_status_);
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        "durability is disabled for this session");
  }
  return durability_->Checkpoint();
}

/// PublishKbGauges' gauge handles, resolved once per session, and per
/// relation the (version epoch, relation version) its gauges were last
/// set at.
struct WranglingSession::KbGauges {
  /// Version 0 means never set: a live relation's version is at least 1.
  struct RelationGauges {
    obs::Gauge* rows = nullptr;
    obs::Gauge* bytes = nullptr;
    uint64_t epoch = 0;
    uint64_t version = 0;
    size_t byte_count = 0;
  };

  explicit KbGauges(obs::MetricsRegistry* m) : registry(m) {}

  /// The unlabelled gauge `name`; `name` is a string literal.
  obs::Gauge* Fixed(std::string_view name, const char* help) {
    obs::Gauge*& gauge = fixed[name];
    if (gauge == nullptr) gauge = registry->GetGauge(std::string(name), help);
    return gauge;
  }

  RelationGauges ForRelation(const std::string& name) const {
    RelationGauges g;
    g.rows = registry->GetGauge("vada_kb_relation_rows",
                                "Current relation cardinality",
                                {{"relation", name}});
    g.bytes = registry->GetGauge(
        "vada_kb_relation_bytes",
        "Approximate resident bytes of one relation (rows, per-row "
        "hashes, slot array)",
        {{"relation", name}});
    return g;
  }

  obs::MetricsRegistry* registry;
  std::unordered_map<std::string_view, obs::Gauge*> fixed;
  /// Every relation ever published, the dropped ones included.
  std::map<std::string, RelationGauges> by_relation;
};

WranglingSession::~WranglingSession() = default;

void WranglingSession::PublishKbGauges() const {
  obs::MetricsRegistry* m = obs_->metrics();
  if (m == nullptr) return;
  obs::ScopedSpan span(obs_->spans(), /*histogram=*/nullptr,
                       "session.publish_gauges", "session");
  if (kb_gauges_ == nullptr) kb_gauges_ = std::make_unique<KbGauges>(m);
  KbGauges& g = *kb_gauges_;

  // Per relation, walking the sorted names and the sorted cache in step:
  // bytes are re-measured only for relations that moved, and relations
  // that left the KB read 0.
  const std::vector<std::string> names = kb_.RelationNames();
  const uint64_t epoch = kb_.version_epoch();
  size_t kb_bytes = 0;
  auto set = [](KbGauges::RelationGauges* rg, size_t rows, size_t bytes) {
    rg->rows->Set(static_cast<int64_t>(rows));
    rg->bytes->Set(static_cast<int64_t>(bytes));
    rg->byte_count = bytes;
  };
  auto forget = [&set](KbGauges::RelationGauges* rg) {
    set(rg, 0, 0);
    rg->version = 0;
  };
  auto it = g.by_relation.begin();
  for (const std::string& name : names) {
    for (; it != g.by_relation.end() && it->first < name; ++it) {
      forget(&it->second);
    }
    if (it == g.by_relation.end() || it->first != name) {
      it = g.by_relation.emplace_hint(it, name, g.ForRelation(name));
    }
    KbGauges::RelationGauges& rg = it->second;
    const uint64_t version = kb_.relation_version(name);
    if (rg.epoch != epoch || rg.version != version) {
      const Relation* rel = kb_.FindRelation(name);
      set(&rg, rel->size(), rel->ApproxBytes());
      rg.epoch = epoch;
      rg.version = version;
    }
    kb_bytes += rg.byte_count;
    ++it;
  }
  for (; it != g.by_relation.end(); ++it) forget(&it->second);

  g.Fixed("vada_kb_relations", "Number of registered relations")
      ->Set(static_cast<int64_t>(names.size()));
  g.Fixed("vada_kb_global_version",
          "KB global version (bumped on every mutation)")
      ->Set(static_cast<int64_t>(kb_.global_version()));
  g.Fixed("vada_kb_facts_added", "Lifetime facts added to the KB")
      ->Set(static_cast<int64_t>(kb_.facts_added()));
  g.Fixed("vada_kb_facts_removed", "Lifetime facts removed from the KB")
      ->Set(static_cast<int64_t>(kb_.facts_removed()));
  // Duplicate-detection work over the session's fusion runs.
  const DedupStats& dedup = state_->dedup_stats;
  g.Fixed("vada_dedup_pairs_considered",
          "Candidate record pairs duplicate detection examined")
      ->Set(static_cast<int64_t>(dedup.pairs_considered));
  g.Fixed("vada_dedup_pairs_pruned",
          "Candidate pairs ruled out early, by the score bound or for "
          "sharing too few attributes")
      ->Set(static_cast<int64_t>(dedup.pairs_pruned));
  g.Fixed("vada_dedup_pairs_scored",
          "Candidate pairs whose exact similarity was computed")
      ->Set(static_cast<int64_t>(dedup.pairs_scored));
  g.Fixed("vada_dedup_pairs_matched",
          "Candidate pairs at or above the duplicate threshold")
      ->Set(static_cast<int64_t>(dedup.pairs_matched));
  g.Fixed("vada_dedup_blocks_truncated",
          "Blocks cut short by max_pairs_per_block")
      ->Set(static_cast<int64_t>(dedup.blocks_truncated));
  g.Fixed("vada_piece_cache_bytes",
          "Approximate resident bytes of the transducer bodies' piece "
          "caches, the retained fusion union included")
      ->Set(static_cast<int64_t>(state_->pieces.ApproxBytes()));
  g.Fixed("vada_quality_context_compiles",
          "Compilations of the quality context (learned CFDs and their "
          "expectations), one per version of the data context")
      ->Set(static_cast<int64_t>(state_->quality_context_compiles));
  // Persistent composite join indexes live only on cached snapshot
  // databases (per-evaluation scratch copies die with their run).
  size_t index_bytes = state_->snapshot_cache.ApproxIndexBytes();
  g.Fixed("vada_index_bytes",
          "Approximate resident bytes of composite join indexes on "
          "cached relation snapshots")
      ->Set(static_cast<int64_t>(index_bytes));
  // The process-wide symbol table backing the columnar Datalog engine.
  // Monotone by design (ids are never recycled); these gauges are how
  // an operator watches dictionary growth across sessions.
  const datalog::SymbolTable& symtab = datalog::SymbolTable::Global();
  g.Fixed("vada_symtab_symbols",
          "Distinct values interned in the process-wide symbol table")
      ->Set(static_cast<int64_t>(symtab.size()));
  g.Fixed("vada_symtab_bytes",
          "Approximate resident bytes of the process-wide symbol "
          "table (id chunks, intern map, value payloads)")
      ->Set(static_cast<int64_t>(symtab.ApproxBytes()));
  if (durability_ != nullptr) durability_->PublishGauges();
  obs::PublishProcessMetrics(m);

  if (session_handle_.valid()) {
    obs::SessionSnapshot snap;
    snap.name = state_->config.session_name;
    snap.fields = {
        {"target", state_->target_relation},
        {"relations", std::to_string(names.size())},
        {"kb_bytes", std::to_string(kb_bytes)},
        {"index_bytes", std::to_string(index_bytes)},
        {"global_version", std::to_string(kb_.global_version())},
        {"facts_added", std::to_string(kb_.facts_added())},
    };
    session_handle_.Update(std::move(snap));
  }
}

Result<datalog::PlanExplain> WranglingSession::ExplainProgram(
    const std::string& program_text, bool analyze) const {
  Result<datalog::Program> parsed = datalog::Parser::Parse(program_text);
  if (!parsed.ok()) return parsed.status();
  // Scratch copy of just the relations the program reads: ANALYZE runs
  // the program for real, and its derived facts must not leak into the
  // knowledge base.
  datalog::Database db;
  datalog::LoadReferencedRelations(parsed.value(), kb_, &db);
  datalog::EvalOptions options;
  options.planner = state_->config.planner;
  datalog::Evaluator eval(std::move(parsed).value(), options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  datalog::PlanExplain plan;
  VADA_RETURN_IF_ERROR(eval.Explain(&db, &plan, analyze));
  return plan;
}

SessionMetricsReport WranglingSession::MetricsReport() const {
  SessionMetricsReport report;
  obs::MetricsRegistry* m = obs_->metrics();
  if (m == nullptr) return report;
  PublishKbGauges();
  report.snapshot = m->Snapshot();
  report.prometheus = m->RenderPrometheus();
  report.chrome_trace =
      TraceExport::ToChromeTrace(orchestrator_->trace(), obs_->spans());
  return report;
}

const Relation* WranglingSession::result() const {
  return kb_.FindRelation(state_->config.result_relation);
}

Result<RelationQuality> WranglingSession::EstimateResultQuality() const {
  const Relation* res = result();
  if (res == nullptr) {
    return Status::FailedPrecondition("no result yet: call Run first");
  }
  Result<QualityEstimator> estimator =
      ResultQualityEstimator(state_.get(), kb_);
  if (!estimator.ok()) return estimator.status();
  return estimator.value().Estimate(*res);
}

std::vector<Mapping> WranglingSession::mappings() const {
  const Relation* rel = kb_.FindRelation("mapping");
  if (rel == nullptr) return {};
  Result<std::vector<Mapping>> parsed = MappingsFromRelation(*rel);
  return parsed.ok() ? std::move(parsed).value() : std::vector<Mapping>{};
}

Result<std::string> WranglingSession::ExplainResultRow(const Tuple& row) const {
  const Relation* target = kb_.FindRelation(state_->target_relation);
  if (target == nullptr) {
    return Status::FailedPrecondition("no target schema set");
  }
  std::string out = "result row " + row.ToString() + "\n";
  bool attributed = false;
  MappingExecutor executor(state_->config.planner);
  for (const Mapping& m : mappings()) {
    const Relation* raw = kb_.FindRelation(m.result_predicate);
    const Relation* repaired = kb_.FindRelation("repaired_" + m.id);
    bool in_raw = raw != nullptr && raw->Contains(row);
    bool in_repaired = repaired != nullptr && repaired->Contains(row);
    if (!in_raw && !in_repaired) continue;
    attributed = true;
    out += "  via mapping " + m.id;
    if (!in_raw) out += " (value produced by CFD repair)";
    out += ":\n    rule: " + m.rule_text + "\n";
    if (in_raw) {
      // Re-derive with provenance to expose the ground source tuples.
      datalog::Provenance provenance;
      Result<Relation> rerun =
          executor.Execute(m, target->schema(), kb_, &provenance);
      if (rerun.ok() && provenance.Has(m.result_predicate, row)) {
        const datalog::Derivation* d =
            provenance.Find(m.result_predicate, row);
        for (const auto& [pred, premise] : d->premises) {
          out += "    from " + pred + premise.ToString() + "\n";
        }
      }
    }
  }
  if (!attributed) {
    out += "  assembled by fusion: no single mapping emits this exact "
           "tuple (values merged across duplicate listings)\n";
  }
  return out;
}

std::vector<std::string> WranglingSession::selected_mappings() const {
  const Relation* rel = kb_.FindRelation("selected_mapping");
  std::vector<std::string> out;
  if (rel == nullptr) return out;
  for (const Tuple& row : rel->rows()) {
    out.push_back(row.at(0).ToString());
  }
  return out;
}

}  // namespace vada
