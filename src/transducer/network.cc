#include "transducer/network.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"
#include "kb/write_guard.h"
#include "transducer/execution_context.h"

namespace vada {

namespace {

constexpr const char* kFailureRelation = "sys_transducer_failure";
constexpr const char* kQuarantineRelation = "sys_transducer_quarantined";
/// The control relations SyncControlFacts derives.
constexpr const char* kControlRelations[] = {
    "sys_relation_role", "sys_relation_nonempty", "sys_relation_attribute"};

std::array<uint64_t, kRelationRoleCount> RoleVersions(const KnowledgeBase& kb) {
  std::array<uint64_t, kRelationRoleCount> versions{};
  for (size_t i = 0; i < kRelationRoleCount; ++i) {
    versions[i] = kb.catalog().role_version(static_cast<RelationRole>(i));
  }
  return versions;
}

std::array<uint64_t, 3> ControlRelationVersions(const KnowledgeBase& kb) {
  std::array<uint64_t, 3> versions{};
  for (size_t i = 0; i < versions.size(); ++i) {
    versions[i] = kb.relation_version(kControlRelations[i]);
  }
  return versions;
}

void SleepBackoff(const FailurePolicy& policy, double ms) {
  if (ms <= 0) return;
  if (policy.sleep_ms != nullptr) {
    policy.sleep_ms(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Asserts sys_transducer_failure(transducer, code, attempt, step). Best
/// effort: a failure to record a failure must not mask the original one.
void AssertFailureFact(KnowledgeBase* kb, const std::string& transducer,
                       StatusCode code, size_t attempts, size_t step) {
  Status s = kb->EnsureRelation(Schema::Untyped(
      kFailureRelation, {"transducer", "code", "attempt", "step"}));
  if (s.ok()) {
    s = kb->Insert(kFailureRelation,
                   Tuple({Value::String(transducer),
                          Value::String(StatusCodeName(code)),
                          Value::Int(static_cast<int64_t>(attempts)),
                          Value::Int(static_cast<int64_t>(step))}));
  }
  if (!s.ok()) {
    VADA_LOG(kWarning, "orchestrator")
        << "could not assert failure fact for " << transducer << ": "
        << s.ToString();
  }
}

void AssertQuarantineFact(KnowledgeBase* kb, const std::string& transducer,
                          size_t step) {
  Status s = kb->EnsureRelation(
      Schema::Untyped(kQuarantineRelation, {"transducer", "step"}));
  if (s.ok()) {
    s = kb->Insert(kQuarantineRelation,
                   Tuple({Value::String(transducer),
                          Value::Int(static_cast<int64_t>(step))}));
  }
  if (!s.ok()) {
    VADA_LOG(kWarning, "orchestrator")
        << "could not assert quarantine fact for " << transducer << ": "
        << s.ToString();
  }
}

void RetractQuarantineFacts(KnowledgeBase* kb, const std::string& transducer) {
  const Relation* rel = kb->FindRelation(kQuarantineRelation);
  if (rel == nullptr) return;
  std::vector<Tuple> to_remove;
  for (const Tuple& row : rel->rows()) {
    if (row.at(0).string_value() == transducer) to_remove.push_back(row);
  }
  for (const Tuple& row : to_remove) {
    (void)kb->Retract(kQuarantineRelation, row);
  }
}

}  // namespace

ActivityPriorityPolicy::ActivityPriorityPolicy(
    std::vector<std::string> activity_order) {
  for (size_t i = 0; i < activity_order.size(); ++i) {
    rank_[activity_order[i]] = static_cast<int>(i);
  }
}

std::vector<std::string> ActivityPriorityPolicy::DefaultActivityOrder() {
  return {"extraction", "matching",  "mapping",  "execution",
          "quality",    "repair",    "selection", "fusion",
          "feedback"};
}

Transducer* ActivityPriorityPolicy::Choose(
    const std::vector<Transducer*>& eligible) {
  // Pre-condition (SchedulingPolicy::Choose): non-empty eligible set. The
  // orchestrator guarantees it; guard direct callers against UB anyway.
  assert(!eligible.empty() && "Choose() requires a non-empty eligible set");
  if (eligible.empty()) return nullptr;
  Transducer* best = eligible.front();
  int best_rank = 1 << 20;
  for (Transducer* t : eligible) {
    auto it = rank_.find(t->activity());
    int r = (it == rank_.end()) ? (1 << 20) - 1 : it->second;
    if (r < best_rank) {
      best_rank = r;
      best = t;
    }
  }
  return best;
}

Transducer* FifoPolicy::Choose(const std::vector<Transducer*>& eligible) {
  assert(!eligible.empty() && "Choose() requires a non-empty eligible set");
  if (eligible.empty()) return nullptr;
  return eligible.front();
}

NetworkTransducer::NetworkTransducer(TransducerRegistry* registry,
                                     std::unique_ptr<SchedulingPolicy> policy,
                                     OrchestratorOptions options)
    : registry_(registry), policy_(std::move(policy)), options_(options) {}

Status NetworkTransducer::SyncControlFacts(KnowledgeBase* kb) {
  Relation roles(
      Schema::Untyped("sys_relation_role", {"relation", "role"}));
  Relation nonempty(Schema::Untyped("sys_relation_nonempty", {"relation"}));
  Relation attrs(
      Schema::Untyped("sys_relation_attribute", {"relation", "attribute"}));

  for (const std::string& name : kb->RelationNames()) {
    if (StartsWith(name, "sys_")) continue;
    const Relation* rel = kb->FindRelation(name);
    if (rel == nullptr) continue;
    std::optional<RelationRole> role = kb->catalog().GetRole(name);
    if (role.has_value()) {
      VADA_RETURN_IF_ERROR(roles.InsertUnchecked(
          Tuple({Value::String(name),
                 Value::String(RelationRoleName(*role))})));
    }
    if (!rel->empty()) {
      VADA_RETURN_IF_ERROR(
          nonempty.InsertUnchecked(Tuple({Value::String(name)})));
    }
    for (const Attribute& a : rel->schema().attributes()) {
      VADA_RETURN_IF_ERROR(attrs.InsertUnchecked(
          Tuple({Value::String(name), Value::String(a.name)})));
    }
  }
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(std::move(roles)));
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(std::move(nonempty)));
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(std::move(attrs)));
  return Status::OK();
}

NetworkTransducer::ControlShape NetworkTransducer::ControlShape::Of(
    const KnowledgeBase& kb, const std::string& name) {
  const Relation* rel = kb.FindRelation(name);
  ControlShape shape;
  shape.role = kb.catalog().GetRole(name);
  shape.nonempty = !rel->empty();
  for (const Attribute& a : rel->schema().attributes()) {
    shape.attributes.push_back(a.name);
  }
  return shape;
}

bool NetworkTransducer::RefreshShapes(const KnowledgeBase& kb,
                                      bool recheck_all) {
  // Both sequences are sorted by name: walk them in step.
  std::map<std::string, std::pair<uint64_t, ControlShape>>& shapes =
      control_.shapes;
  bool changed = false;
  auto it = shapes.begin();
  for (const std::string& name : kb.RelationNames()) {
    if (StartsWith(name, "sys_")) continue;
    while (it != shapes.end() && it->first < name) {
      it = shapes.erase(it);  // dropped
      changed = true;
    }
    const uint64_t version = kb.relation_version(name);
    if (it == shapes.end() || it->first != name) {  // created
      shapes.emplace_hint(it, name,
                          std::pair(version, ControlShape::Of(kb, name)));
      changed = true;
      continue;
    }
    auto& [remembered, shape] = (it++)->second;
    if (!recheck_all && version == remembered) continue;
    remembered = version;
    ControlShape now = ControlShape::Of(kb, name);
    if (now == shape) continue;
    shape = std::move(now);
    changed = true;
  }
  if (it != shapes.end()) {
    shapes.erase(it, shapes.end());
    changed = true;
  }
  return changed;
}

Status NetworkTransducer::SyncControlFactsIfStale(KnowledgeBase* kb) {
  const std::array<uint64_t, kRelationRoleCount> roles = RoleVersions(*kb);
  const bool roles_moved = roles != control_.role_versions;
  if (control_.synced && kb->global_version() == control_.global_version &&
      kb->version_epoch() == control_.epoch && !roles_moved) {
    return Status::OK();
  }
  // A new epoch can give a remembered version other contents.
  const bool new_epoch =
      !control_.synced || kb->version_epoch() != control_.epoch;
  const bool shape_changed = RefreshShapes(*kb, new_epoch || roles_moved);
  if (new_epoch || shape_changed ||
      ControlRelationVersions(*kb) != control_.sys_versions) {
    control_.synced = false;  // a failed rebuild is retried in full
    VADA_RETURN_IF_ERROR(SyncControlFacts(kb));
  }
  // Record the post-sync versions: if the sync itself bumped them, the
  // sys_* relations already reflect the (unchanged) non-sys state.
  control_.synced = true;
  control_.global_version = kb->global_version();
  control_.epoch = kb->version_epoch();
  control_.role_versions = roles;
  control_.sys_versions = ControlRelationVersions(*kb);
  return Status::OK();
}

Result<NetworkTransducer::Dependency*> NetworkTransducer::DependencyFor(
    const std::string& source) {
  auto it = dependencies_.find(source);
  if (it == dependencies_.end()) {
    Result<datalog::Program> program = datalog::Parser::Parse(source);
    if (!program.ok()) return program.status();
    Dependency dep;
    dep.program = std::move(program).value();
    for (std::string& name : datalog::ReferencedRelations(dep.program)) {
      dep.reads.relations.insert(std::move(name));
    }
    it = dependencies_.emplace(source, std::move(dep)).first;
  }
  return &it->second;
}

Result<bool> NetworkTransducer::IsSatisfied(const Transducer& transducer,
                                            KnowledgeBase* kb) {
  VADA_RETURN_IF_ERROR(SyncControlFactsIfStale(kb));
  Result<Dependency*> dep = DependencyFor(transducer.input_dependency());
  if (dep.ok() && dep.value()->key.Holds(*kb)) return dep.value()->ready;
  Result<std::vector<Tuple>> ready =
      dep.ok() ? EvaluateDependency(*dep.value(), *kb) : dep.status();
  if (!ready.ok()) {
    // Chain the message but keep the underlying code (a parse error stays
    // kParseError, an evaluation bug stays kInternal) so callers can
    // dispatch on it.
    return Status(ready.status().code(),
                  "input dependency of " + transducer.name() +
                      " failed to evaluate: " + ready.status().message());
  }
  dep.value()->key = ReadSetKey(*kb, dep.value()->reads);
  dep.value()->ready = !ready.value().empty();
  return dep.value()->ready;
}

Result<std::vector<Tuple>> NetworkTransducer::EvaluateDependency(
    const Dependency& dep, const KnowledgeBase& kb) const {
  datalog::EvalOptions eval_options;
  eval_options.planner = options_.planner;
  if (options_.obs != nullptr) eval_options.metrics = options_.obs->metrics();
  return datalog::QueryKnowledgeBase(dep.program, kb, "ready", eval_options,
                                     options_.snapshot_cache);
}

std::vector<std::string> NetworkTransducer::QuarantinedTransducers() const {
  std::vector<std::string> out;
  for (const auto& [name, fs] : failure_state_) {
    if (fs.circuit == Circuit::kOpen) out.push_back(name);
  }
  return out;  // std::map iteration is already sorted
}

const NetworkTransducer::FailureState* NetworkTransducer::failure_state(
    const std::string& name) const {
  auto it = failure_state_.find(name);
  return it == failure_state_.end() ? nullptr : &it->second;
}

size_t NetworkTransducer::OpenCircuits() const {
  size_t n = 0;
  for (const auto& [name, fs] : failure_state_) {
    if (fs.circuit == Circuit::kOpen) ++n;
  }
  return n;
}

void NetworkTransducer::PublishQuarantineGauge(
    obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics
      ->GetGauge("vada_orchestrator_quarantined",
                 "Transducers currently benched by the circuit breaker")
      ->Set(static_cast<int64_t>(OpenCircuits()));
}

void NetworkTransducer::RecordFailure(Transducer* transducer,
                                      const Status& error, size_t attempts,
                                      size_t step, KnowledgeBase* kb,
                                      OrchestrationStats* stats,
                                      obs::MetricsRegistry* metrics) {
  const FailurePolicy& fp = options_.failure_policy;
  FailureState& fs = failure_state_[transducer->name()];
  ++fs.total_failures;
  ++fs.consecutive_failures;
  fs.retry_scheduled = false;
  fs.last_error = error.ToString();
  if (stats != nullptr) ++stats->failures;
  if (metrics != nullptr) {
    metrics
        ->GetCounter("vada_transducer_failures_total",
                     "Failed orchestration steps (all attempts exhausted "
                     "or dependency evaluation failed)",
                     {{"transducer", transducer->name()},
                      {"code", StatusCodeName(error.code())}})
        ->Increment();
  }
  if (fp.assert_failure_facts) {
    AssertFailureFact(kb, transducer->name(), error.code(), attempts, step);
  }
  VADA_LOG(kWarning, "orchestrator")
      << "transducer " << transducer->name() << " failed (attempts: "
      << attempts << ", step: " << step << "): " << error.ToString();

  if (fs.circuit == Circuit::kHalfOpen) {
    // Failed its probation trial: back to quarantine.
    fs.circuit = Circuit::kOpen;
    fs.cooldown_progress = 0;
  } else if (fs.circuit == Circuit::kClosed &&
             fs.consecutive_failures >= fp.quarantine_after) {
    fs.circuit = Circuit::kOpen;
    fs.cooldown_progress = 0;
    if (fp.assert_failure_facts) {
      AssertQuarantineFact(kb, transducer->name(), step);
    }
    VADA_LOG(kWarning, "orchestrator")
        << "quarantining transducer " << transducer->name() << " after "
        << fs.consecutive_failures << " consecutive failures";
  }
  PublishQuarantineGauge(metrics);
}

void NetworkTransducer::RecordSuccess(Transducer* transducer,
                                      KnowledgeBase* kb,
                                      obs::MetricsRegistry* metrics) {
  auto it = failure_state_.find(transducer->name());
  if (it == failure_state_.end()) return;
  FailureState& fs = it->second;
  fs.consecutive_failures = 0;
  fs.cooldown_progress = 0;
  fs.retry_scheduled = false;
  if (fs.circuit != Circuit::kClosed) {
    fs.circuit = Circuit::kClosed;
    if (options_.failure_policy.assert_failure_facts) {
      RetractQuarantineFacts(kb, transducer->name());
    }
    VADA_LOG(kInfo, "orchestrator")
        << "transducer " << transducer->name() << " exited quarantine";
    PublishQuarantineGauge(metrics);
  }
}

Status NetworkTransducer::Run(KnowledgeBase* kb, OrchestrationStats* stats) {
  OrchestrationStats local;
  OrchestrationStats* st = (stats != nullptr) ? stats : &local;
  const FailurePolicy& fp = options_.failure_policy;

  obs::MetricsRegistry* m =
      options_.obs != nullptr ? options_.obs->metrics() : nullptr;
  obs::SpanCollector* spans =
      options_.obs != nullptr ? options_.obs->spans() : nullptr;
  obs::Counter* steps_counter = nullptr;
  obs::Counter* effective_counter = nullptr;
  obs::Counter* dep_checks_counter = nullptr;
  obs::Counter* memo_hits_counter = nullptr;
  obs::Histogram* eligibility_hist = nullptr;
  obs::Histogram* control_sync_hist = nullptr;
  obs::Histogram* dep_check_hist = nullptr;
  obs::Histogram* rollback_hist = nullptr;
  if (m != nullptr) {
    steps_counter =
        m->GetCounter("vada_orchestrator_steps", "Transducer executions");
    effective_counter = m->GetCounter("vada_orchestrator_effective_steps",
                                      "Executions that changed the KB");
    dep_checks_counter = m->GetCounter("vada_orchestrator_dependency_checks",
                                       "Input-dependency query evaluations");
    memo_hits_counter = m->GetCounter(
        "vada_orchestrator_dependency_memo_hits",
        "Input-dependency answers reused because no relation the query "
        "reads had changed");
    eligibility_hist = m->GetHistogram(
        "vada_orchestrator_eligibility_seconds",
        "Per-step control-fact sync plus eligibility scan",
        obs::Histogram::DefaultLatencyBucketsSeconds());
    control_sync_hist = m->GetHistogram(
        "vada_orchestrator_control_sync_seconds",
        "Per-step control-fact sync: the shape check, plus the rebuild "
        "when a relation's shape changed",
        obs::Histogram::DefaultLatencyBucketsSeconds());
    dep_check_hist = m->GetHistogram(
        "vada_orchestrator_dependency_check_seconds",
        "One input-dependency Datalog query",
        obs::Histogram::DefaultLatencyBucketsSeconds());
    rollback_hist =
        m->GetHistogram("vada_kb_rollback_seconds",
                        "WriteGuard rollback of one failed Execute()",
                        obs::Histogram::DefaultLatencyBucketsSeconds());
  }

  // Fixpoint probes are a per-Run budget (a new Run is new information:
  // the user added context or feedback, so benched transducers deserve
  // fresh trials).
  for (auto& [name, fs] : failure_state_) fs.probes_used = 0;

  const uint64_t run_start_ns = obs::MonotonicNanos();
  auto finalize = [&](Status status) {
    st->quarantined = OpenCircuits();
    PublishQuarantineGauge(m);
    return status;
  };

  for (size_t step = 0; step < options_.max_steps; ++step) {
    // Wall-clock budget: stop gracefully and keep the best-effort result.
    if (fp.enabled && fp.run_budget_ms > 0) {
      double elapsed_ms =
          static_cast<double>(obs::MonotonicNanos() - run_start_ns) * 1e-6;
      if (elapsed_ms >= fp.run_budget_ms) {
        st->budget_exhausted = true;
        if (m != nullptr) {
          m->GetCounter("vada_orchestrator_budget_exhausted_total",
                        "Run() calls stopped by their wall-clock budget")
              ->Increment();
        }
        VADA_LOG(kWarning, "orchestrator")
            << "run budget (" << fp.run_budget_ms
            << " ms) exhausted after " << st->steps
            << " steps; returning best-effort result";
        return finalize(Status::OK());
      }
    }

    // Eligibility: something the transducer's last step read or wrote
    // moved AND dependency satisfied AND not quarantined (open circuits
    // sit out their cooldown). Two passes: gating on circuits and
    // transducer keys first, then the dependency answers in registration
    // order. A query runs only when its memoised answer no longer holds:
    // most steps move relations no dependency reads.
    std::vector<Transducer*> eligible;
    {
      obs::ScopedSpan eligibility_span(spans, eligibility_hist, "eligibility",
                                       "orchestrator");
      {
        obs::ScopedSpan sync_span(spans, control_sync_hist, "control_sync",
                                  "orchestrator");
        VADA_RETURN_IF_ERROR(SyncControlFactsIfStale(kb));
      }

      // Gating (mutates failure_state_).
      std::vector<Transducer*> candidates;
      for (const std::unique_ptr<Transducer>& t : registry_->transducers()) {
        FailureState* fs = nullptr;
        if (fp.enabled) {
          auto fit = failure_state_.find(t->name());
          fs = fit == failure_state_.end() ? nullptr : &fit->second;
        }
        bool probation = false;
        if (fs != nullptr) {
          if (fs->circuit == Circuit::kOpen) {
            // Probes are a per-Run budget shared between cooldown and
            // fixpoint promotion; once spent, the transducer stays
            // benched, which is what guarantees Run() terminates for a
            // permanently failing transducer.
            if (fs->probes_used >= fp.quarantine_max_probes) continue;
            if (++fs->cooldown_progress < fp.quarantine_cooldown_scans) {
              continue;  // still benched
            }
            fs->circuit = Circuit::kHalfOpen;  // cooldown over: probation
            ++fs->probes_used;
          }
          probation =
              fs->circuit == Circuit::kHalfOpen || fs->retry_scheduled;
        }
        if (!probation) {
          auto it = keys_.find(t->name());
          if (it != keys_.end() && it->second.Holds(*kb)) {
            continue;  // nothing it read or wrote has moved
          }
        }
        candidates.push_back(t.get());
      }

      // Answers in registration order. Candidates sharing a dependency
      // text share its memo, so only the first of them evaluates it.
      for (Transducer* t : candidates) {
        Result<Dependency*> dep = DependencyFor(t->input_dependency());
        if (dep.ok() && dep.value()->key.Holds(*kb)) {
          ++st->dependency_memo_hits;
          if (memo_hits_counter != nullptr) memo_hits_counter->Increment();
          if (dep.value()->ready) eligible.push_back(t);
          continue;
        }
        ++st->dependency_checks;
        if (dep_checks_counter != nullptr) dep_checks_counter->Increment();
        Result<std::vector<Tuple>> ready(Status::Internal("not evaluated"));
        ReadSetKey key;
        {
          obs::ScopedSpan dep_span(spans, dep_check_hist, "dep_check",
                                   "orchestrator");
          if (!dep.ok()) {
            ready = dep.status();
          } else {
            key = ReadSetKey(*kb, dep.value()->reads);
            ready = EvaluateDependency(*dep.value(), *kb);
          }
        }
        if (!ready.ok()) {
          Status dep_error(ready.status().code(),
                           "input dependency of " + t->name() +
                               " failed to evaluate: " +
                               ready.status().message());
          if (!fp.enabled ||
              fp.on_failure_exhausted == FailureAction::kAbort) {
            return finalize(dep_error);
          }
          // Dependency-evaluation failures get the same treatment as
          // execute failures: recorded, counted towards quarantine, and
          // the transducer is skipped instead of aborting the run.
          RecordFailure(t, dep_error, 1, step, kb, st, m);
          keys_[t->name()] = ReadSetKey::WholeKb(*kb);
          continue;
        }
        dep.value()->key = std::move(key);
        dep.value()->ready = !ready.value().empty();
        if (dep.value()->ready) eligible.push_back(t);
      }
    }
    if (eligible.empty()) {
      // Would-be fixpoint. Before settling, give failed transducers one
      // more trial: benched ones with probe budget go half-open (this is
      // how a healed flaky transducer exits quarantine when nothing else
      // moves the KB), and closed ones with pending failures get a single
      // read-set key bypass (each grant either succeeds — resetting the
      // count — or moves them one failure closer to quarantine, so the
      // loop still terminates).
      if (fp.enabled) {
        bool promoted = false;
        for (auto& [name, fs] : failure_state_) {
          if (fs.circuit == Circuit::kOpen &&
              fs.probes_used < fp.quarantine_max_probes) {
            fs.circuit = Circuit::kHalfOpen;
            ++fs.probes_used;
            promoted = true;
          } else if (fs.circuit == Circuit::kClosed &&
                     fs.consecutive_failures > 0 && !fs.retry_scheduled) {
            fs.retry_scheduled = true;
            promoted = true;
          }
        }
        if (promoted) continue;
      }
      return finalize(Status::OK());  // fixpoint
    }

    Transducer* chosen = policy_->Choose(eligible);
    if (chosen == nullptr) {
      return finalize(Status::Internal(
          "scheduling policy " + policy_->name() +
          " returned no transducer from a non-empty eligible set"));
    }
    uint64_t version_before = kb->global_version();
    uint64_t facts_added_before = kb->facts_added();
    uint64_t facts_removed_before = kb->facts_removed();
    obs::Histogram* execute_hist =
        m == nullptr
            ? nullptr
            : m->GetHistogram("vada_transducer_execute_seconds",
                              "Transducer Execute() wall time",
                              obs::Histogram::DefaultLatencyBucketsSeconds(),
                              {{"transducer", chosen->name()}});

    // Execute with retry: every attempt runs under a write-guard, so a
    // failed attempt leaves the KB exactly as it was (versions included).
    // The KB records what each attempt reads and writes; the successful
    // attempt's record becomes the transducer's key.
    const size_t max_attempts =
        fp.enabled ? std::max<size_t>(1, fp.max_attempts) : 1;
    uint64_t t0 = obs::MonotonicNanos();
    Status exec_status;
    size_t attempts = 0;
    bool rolled_back = false;
    double backoff_ms = fp.backoff_initial_ms;
    ReadSet accessed;
    auto execute = [&](ExecutionContext* ctx) {
      accessed = ReadSet();
      kb->RecordAccesses(&accessed);
      Status status = chosen->Execute(kb, ctx);
      kb->RecordAccesses(nullptr);
      return status;
    };
    for (attempts = 1; attempts <= max_attempts; ++attempts) {
      ExecutionContext ctx;
      ctx.set_attempt(attempts);
      ctx.set_step(next_step_);
      if (fp.enabled) ctx.SetTimeoutMs(fp.execute_timeout_ms);
      obs::ScopedSpan execute_span(spans, execute_hist, chosen->name(),
                                   chosen->activity());
      if (fp.enabled) {
        WriteGuard guard(kb);
        exec_status = execute(&ctx);
        if (exec_status.ok()) {
          guard.Commit();
          break;
        }
        uint64_t rb0 = obs::MonotonicNanos();
        guard.Rollback();
        if (rollback_hist != nullptr) {
          rollback_hist->Observe(
              static_cast<double>(obs::MonotonicNanos() - rb0) * 1e-9);
        }
        rolled_back = true;
        ++st->rollbacks;
      } else {
        exec_status = execute(&ctx);
        if (exec_status.ok()) break;
      }
      if (attempts < max_attempts) {
        ++st->retries;
        if (m != nullptr) {
          m->GetCounter("vada_transducer_retries_total",
                        "Execute() retries after a rolled-back failure",
                        {{"transducer", chosen->name()}})
              ->Increment();
        }
        SleepBackoff(fp, backoff_ms);
        backoff_ms = std::min(backoff_ms * fp.backoff_multiplier,
                              fp.backoff_max_ms);
      }
    }
    attempts = std::min(attempts, max_attempts);
    uint64_t t1 = obs::MonotonicNanos();

    // Key the transducer on what it read and wrote, versions taken after
    // its own writes: it runs again only once one of them moves. (A
    // transducer that is not idempotent therefore goes unnoticed here;
    // tests audit idempotence instead.)
    if (exec_status.ok()) {
      keys_[chosen->name()] = ReadSetKey(*kb, std::move(accessed));
    }
    ++st->steps;
    uint64_t version_after = kb->global_version();
    bool changed = version_after != version_before;
    if (changed) ++st->effective_steps;
    uint64_t facts_added = kb->facts_added() - facts_added_before;
    uint64_t facts_removed = kb->facts_removed() - facts_removed_before;

    if (m != nullptr) {
      steps_counter->Increment();
      if (changed) effective_counter->Increment();
      if (facts_added > 0) {
        m->GetCounter("vada_transducer_kb_facts_added",
                      "KB facts added by Execute() (replace counts full)",
                      {{"transducer", chosen->name()}})
            ->Increment(facts_added);
      }
      if (facts_removed > 0) {
        m->GetCounter("vada_transducer_kb_facts_removed",
                      "KB facts removed by Execute() (replace counts full)",
                      {{"transducer", chosen->name()}})
            ->Increment(facts_removed);
      }
    }

    if (options_.record_trace) {
      TraceEvent event;
      event.step = next_step_++;
      event.transducer = chosen->name();
      event.activity = chosen->activity();
      event.policy = policy_->name();
      for (Transducer* t : eligible) event.eligible.push_back(t->name());
      event.version_before = version_before;
      event.version_after = version_after;
      event.changed_kb = changed;
      event.facts_added = facts_added;
      event.facts_removed = facts_removed;
      event.start_ns = t0;
      event.duration_ms = static_cast<double>(t1 - t0) * 1e-6;
      event.attempts = attempts;
      event.rolled_back = rolled_back;
      if (!exec_status.ok()) event.note = exec_status.ToString();
      trace_.Add(std::move(event));
    } else {
      ++next_step_;
    }

    if (exec_status.ok()) {
      if (fp.enabled) RecordSuccess(chosen, kb, m);
    } else {
      if (!fp.enabled) {
        return finalize(Status(exec_status.code(),
                               "transducer " + chosen->name() +
                                   " failed: " + exec_status.message()));
      }
      RecordFailure(chosen, exec_status, attempts, next_step_ - 1, kb, st, m);
      if (fp.on_failure_exhausted == FailureAction::kAbort) {
        return finalize(Status(
            exec_status.code(),
            "transducer " + chosen->name() + " failed after " +
                std::to_string(attempts) +
                " attempt(s): " + exec_status.message()));
      }
      // Wait for new information (or a quarantine probe) before trying
      // this transducer again: keying it on the whole KB after its own
      // failure facts keeps it out of a failure loop.
      keys_[chosen->name()] = ReadSetKey::WholeKb(*kb);
    }
  }
  return finalize(Status::Internal(
      "orchestration exceeded max_steps (" +
      std::to_string(options_.max_steps) +
      "); registered transducers likely keep changing each other's "
      "inputs"));
}

}  // namespace vada
