// End-to-end wrangling benchmark binary. Runs one workload through the
// public WranglingSession API and prints one JSON line of raw samples,
// counters and fingerprints; run.py turns it into the benchmark's metrics.
//
//   vada_perfbench --workload payg_refresh --seed 3 --seconds 10
//                  --trace 0 --work-dir .bench_build/work
//
// Workloads (see README.md for why each exists):
//   bootstrap_3000     repeated cold sessions over the demo scenario
//   payg_refresh       a durable session fed feedback, source batches and
//                      user-context switches, each followed by Run()
//   vadalog_analytics  a user VadalogTransducer (recursive reachability
//                      joined with the result) refreshed by link inserts
//
// Each run repeats an "epoch" (fresh session: setup, then the workload's
// fixed event stream) until --seconds have passed. Every epoch of a run is
// the same work, so results must fingerprint identically across epochs.
//
// With --trace 1, epochs alternate plain / traced (ABBA order). Traced
// epochs wrap every transducer in a timing decorator, time each layer's
// public calls from here, diff the session's counters around the stream
// and, for vadalog_analytics, replay the analytics program after each
// event. Layer figures are per-epoch means over the traced epochs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"
#include "datalog/symbol_table.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "obs/json.h"
#include "obs/process_stats.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

namespace vada::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Workload sizes. They define the workloads: changing one changes what
// the benchmark measures.
// ---------------------------------------------------------------------
constexpr size_t kBootstrapProperties = 3000;
constexpr size_t kBootstrapPostcodes = 300;
constexpr size_t kPaygProperties = 300;
constexpr size_t kPaygPostcodes = 40;
constexpr size_t kPaygEvents = 60;
constexpr size_t kPaygBatchRows = 3;
constexpr size_t kAnalyticsProperties = 1000;
constexpr size_t kAnalyticsPostcodes = 300;
constexpr size_t kAnalyticsChains = 20;
constexpr size_t kAnalyticsChainLength = 10;
constexpr size_t kAnalyticsEvents = 40;

// Reconciliation tolerance. Between its timed input calls and Run() an
// event runs only the benchmark's bookkeeping (well under a microsecond),
// so the unexplained part of its wall time must stay under this share of
// the wall, plus a fixed allowance for a preemption landing in that
// window; summed over an epoch it must stay under kReconcileEpochShare.
constexpr double kReconcileEventShare = 0.05;
constexpr double kReconcileEventFixedMs = 5.0;
constexpr double kReconcileEpochShare = 0.02;

const char* const kActivities[] = {"matching", "mapping",   "execution",
                                   "quality",  "repair",    "selection",
                                   "fusion",   "feedback",  "analytics"};

const char kAnalyticsProgram[] =
    "reach(X, Y) :- link(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), link(Y, Z).\n"
    "reach_price(X, P) :- reach(X, Q), "
    "wrangled_result(_T, _D, _S, Q, _B, P, _C), P > 0.\n"
    "reach_stats(X, count<P>) :- reach_price(X, P).\n";
const char kAnalyticsOutput[] = "reach_stats";

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

Schema TargetSchema() {
  return Schema::Untyped("property", {"type", "description", "street",
                                      "postcode", "bedrooms", "price",
                                      "crimerank"});
}

struct Scenario {
  GroundTruth truth;
  Relation rightmove{Schema()};
  Relation onthemarket{Schema()};
  Relation deprivation{Schema()};
  Relation address{Schema()};
};

// The paper's demo scenario: two portals with asymmetric extraction
// quality (Rightmove has the bedroom-area bug far more often), the
// open-government deprivation source and the address reference data.
Scenario MakeScenario(uint64_t seed, size_t properties, size_t postcodes) {
  Scenario s;
  PropertyUniverseOptions uopts;
  uopts.num_properties = properties;
  uopts.num_postcodes = postcodes;
  uopts.seed = seed;
  s.truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm;
  rm.seed = seed * 31 + 1;
  rm.coverage = 0.75;
  rm.bedrooms_area_rate = 0.18;
  s.rightmove = ExtractRightmove(s.truth, rm);
  ExtractionErrorOptions otm;
  otm.seed = seed * 31 + 2;
  otm.coverage = 0.6;
  otm.bedrooms_area_rate = 0.04;
  s.onthemarket = ExtractOnthemarket(s.truth, otm);
  s.deprivation = GenerateDeprivation(s.truth);
  s.address = GenerateAddressReference(s.truth);
  return s;
}

// ---------------------------------------------------------------------
// Fingerprints: row count plus an order-independent hash (sum of per-row
// FNV-1a hashes of the rendered tuple), stable across builds.
// ---------------------------------------------------------------------

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Fingerprint(const Relation* relation) {
  if (relation == nullptr) return "absent";
  uint64_t sum = 0;
  for (const Tuple& row : relation->rows()) sum += Fnv1a(row.ToString());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", relation->size(),
                static_cast<unsigned long long>(sum));
  return buf;
}

// ---------------------------------------------------------------------
// Metrics snapshots
// ---------------------------------------------------------------------

// Sum over every label set of a family: counter/gauge values, or
// histogram sums (seconds for the latency histograms).
double FamilyTotal(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  double total = 0.0;
  for (const obs::MetricSample& s : snapshot.samples) {
    if (s.name != name) continue;
    total += s.kind == obs::MetricKind::kHistogram ? s.sum : s.value;
  }
  return total;
}

double FamilyDelta(const obs::MetricsSnapshot& before,
                   const obs::MetricsSnapshot& after,
                   const std::string& name) {
  return FamilyTotal(after, name) - FamilyTotal(before, name);
}

// ---------------------------------------------------------------------
// Tracing: a decorator timing every transducer body by activity.
// ---------------------------------------------------------------------

struct BodyTotals {
  double ms = 0.0;
  double calls = 0.0;
  double effective_calls = 0.0;  ///< KB global version moved during the call
};

class TimedTransducer : public Transducer {
 public:
  TimedTransducer(std::unique_ptr<Transducer> inner,
                  std::map<std::string, BodyTotals>* bodies)
      : Transducer(inner->name(), inner->activity(),
                   inner->input_dependency()),
        inner_(std::move(inner)),
        bodies_(bodies) {}

  const std::string* vadalog_program() const override {
    return inner_->vadalog_program();
  }

  Status Execute(KnowledgeBase* kb) override { return Execute(kb, nullptr); }

  Status Execute(KnowledgeBase* kb, ExecutionContext* ctx) override {
    uint64_t version = kb->global_version();
    Clock::time_point t0 = Clock::now();
    Status s = inner_->Execute(kb, ctx);
    BodyTotals& totals = (*bodies_)[activity()];
    totals.ms += MsBetween(t0, Clock::now());
    totals.calls += 1;
    if (kb->global_version() != version) totals.effective_calls += 1;
    return s;
  }

 private:
  std::unique_ptr<Transducer> inner_;
  std::map<std::string, BodyTotals>* bodies_;
};

/// What one traced epoch measured. Counters are exact per epoch; times
/// are that epoch's totals.
struct EpochTrace {
  std::map<std::string, BodyTotals> bodies;
  double run_ms = 0.0;
  double input_ms = 0.0;
  OrchestrationStats orch;
  double min_self_ms = 0.0;  ///< smallest per-Run (Run - bodies) residual
  double event_ms = 0.0;     ///< Σ event wall
  double gap_ms = 0.0;       ///< Σ (event wall - input - Run)
  std::map<std::string, double> counters;
};

// ---------------------------------------------------------------------
// Run-wide recorder
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

/// Timings of one epoch, plain or traced.
struct EpochSample {
  bool traced = false;
  double setup_s = 0.0;
  std::map<std::string, std::vector<double>> latency_ms;  ///< by event kind
  double source_rows = 0.0;  ///< source rows wrangled (bootstrap_3000)
};

class Recorder {
 public:
  /// Counts one API call; non-OK statuses count as failed.
  bool Check(const Status& s, const char* what) {
    ++attempted_;
    if (s.ok()) return true;
    ++failed_;
    Problem(std::string(what) + ": " + s.ToString());
    return false;
  }

  void Problem(const std::string& message) {
    if (problems_.size() < 20) problems_.push_back(message);
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  }

  /// Records a value that must be identical in every epoch.
  void Invariant(const std::string& key, const std::string& value) {
    auto [it, inserted] = invariants_.emplace(key, value);
    if (!inserted && it->second != value) {
      Problem("epochs disagree on " + key + ": " + it->second + " vs " +
              value);
    }
  }

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, std::string> invariants_;

  EpochSample& epoch() { return epochs_.back(); }

  std::vector<EpochSample> epochs_;
  std::vector<EpochTrace> traces_;
  double result_quality_ = 0.0;
};

/// One epoch's session plumbing: times input calls and Run() and, when
/// traced, accumulates the layer split.
class Epoch {
 public:
  Epoch(Recorder* rec, EpochTrace* trace) : rec_(rec), trace_(trace) {}

  /// Times one input call (AddSource, AddFeedback, kb().Insert, ...).
  bool Input(const char* what, const std::function<Status()>& call) {
    Clock::time_point t0 = Clock::now();
    Status s = call();
    input_ms_ += MsBetween(t0, Clock::now());
    return rec_->Check(s, what);
  }

  bool Run(WranglingSession* session) {
    double body_before = trace_ != nullptr ? BodyMs() : 0.0;
    OrchestrationStats stats;
    Clock::time_point t0 = Clock::now();
    Status s = session->Run(&stats);
    double ms = MsBetween(t0, Clock::now());
    run_ms_ += ms;
    if (trace_ != nullptr) {
      OrchestrationStats& o = trace_->orch;
      o.steps += stats.steps;
      o.effective_steps += stats.effective_steps;
      o.dependency_checks += stats.dependency_checks;
      o.failures += stats.failures;
      o.retries += stats.retries;
      o.rollbacks += stats.rollbacks;
      trace_->min_self_ms =
          std::min(trace_->min_self_ms, ms - (BodyMs() - body_before));
    }
    return rec_->Check(s, "Run");
  }

  /// Brackets one timed user event: inputs followed by Run().
  void BeginEvent() {
    event_start_ = Clock::now();
    input_ms_ = 0.0;
    run_ms_ = 0.0;
  }
  void EndEvent(const std::string& kind) {
    double wall = MsBetween(event_start_, Clock::now());
    rec_->epoch().latency_ms[kind].push_back(wall);
    if (trace_ != nullptr) {
      trace_->input_ms += input_ms_;
      trace_->run_ms += run_ms_;
      double gap = wall - input_ms_ - run_ms_;
      trace_->event_ms += wall;
      trace_->gap_ms += gap;
      double allowed = kReconcileEventShare * wall + kReconcileEventFixedMs;
      if (gap < -1e-6 || gap > allowed) {
        rec_->Problem("reconciliation: event wall " + std::to_string(wall) +
                      " ms vs input+run " +
                      std::to_string(input_ms_ + run_ms_) + " ms");
      }
    }
  }

 private:
  double BodyMs() const {
    double total = 0.0;
    for (const auto& [activity, t] : trace_->bodies) total += t.ms;
    return total;
  }

  Recorder* rec_;
  EpochTrace* trace_;
  Clock::time_point event_start_;
  double input_ms_ = 0.0;
  double run_ms_ = 0.0;
};

/// Counters diffed around an epoch's timed stream.
struct CounterMark {
  obs::MetricsSnapshot snapshot;
  uint64_t facts_added = 0;
  uint64_t facts_removed = 0;
  uint64_t version = 0;

  static CounterMark Take(const WranglingSession& session) {
    CounterMark m;
    m.snapshot = session.MetricsReport().snapshot;
    m.facts_added = session.kb().facts_added();
    m.facts_removed = session.kb().facts_removed();
    m.version = session.kb().global_version();
    return m;
  }
};

/// Starts a traced epoch's timed stream: drops what set-up recorded (the
/// bootstrap Run of the stream workloads) and marks the counters.
CounterMark BeginTracedStream(const WranglingSession& session,
                              EpochTrace* trace) {
  *trace = EpochTrace();
  return CounterMark::Take(session);
}

void RecordCounterDeltas(const CounterMark& before, const CounterMark& after,
                         const WranglingSession& session, EpochTrace* t) {
  const obs::MetricsSnapshot& a = before.snapshot;
  const obs::MetricsSnapshot& b = after.snapshot;
  auto& c = t->counters;
  c["orch.dep_check_ms"] =
      1e3 * FamilyDelta(a, b, "vada_orchestrator_dependency_check_seconds");
  c["orch.eligibility_ms"] =
      1e3 * FamilyDelta(a, b, "vada_orchestrator_eligibility_seconds");
  c["datalog.evaluations"] = FamilyDelta(a, b, "vada_datalog_evaluations");
  c["datalog.iterations"] = FamilyDelta(a, b, "vada_datalog_iterations");
  c["datalog.facts_derived"] = FamilyDelta(a, b, "vada_datalog_facts_derived");
  c["datalog.join_work"] =
      FamilyDelta(a, b, "vada_datalog_join_probes") +
      FamilyDelta(a, b, "vada_datalog_index_probes_total") +
      FamilyDelta(a, b, "vada_datalog_index_candidates_total");
  c["datalog.index_builds"] =
      FamilyDelta(a, b, "vada_datalog_index_builds_total");
  c["datalog.eval_ms"] =
      1e3 * FamilyDelta(a, b, "vada_datalog_stratum_seconds");
  c["kb.facts_added"] =
      static_cast<double>(after.facts_added - before.facts_added);
  c["kb.facts_removed"] =
      static_cast<double>(after.facts_removed - before.facts_removed);
  c["kb.versions"] = static_cast<double>(after.version - before.version);
  c["kb.rollback_ms"] = 1e3 * FamilyDelta(a, b, "vada_kb_rollback_seconds");
  c["kb.rows"] = static_cast<double>(session.kb().TotalRows());
  c["kb.bytes"] = FamilyTotal(b, "vada_kb_relation_bytes");
  c["kb.wal_records"] = FamilyDelta(a, b, "vada_wal_records_total");
  c["kb.wal_bytes"] = FamilyDelta(a, b, "vada_wal_bytes_total");
}

WranglerConfig MakeConfig(EpochTrace* trace) {
  WranglerConfig config;
  if (trace != nullptr) {
    std::map<std::string, BodyTotals>* bodies = &trace->bodies;
    config.transducer_decorator = [bodies](std::unique_ptr<Transducer> t) {
      return std::unique_ptr<Transducer>(
          std::make_unique<TimedTransducer>(std::move(t), bodies));
    };
  }
  return config;
}

/// Adds the demo scenario's sources and reference data context.
bool AddScenarioInputs(Epoch* epoch, WranglingSession* session,
                       const Scenario& sc) {
  return epoch->Input("AddSource",
                      [&] { return session->AddSource(sc.rightmove); }) &&
         epoch->Input("AddSource",
                      [&] { return session->AddSource(sc.onthemarket); }) &&
         epoch->Input("AddSource",
                      [&] { return session->AddSource(sc.deprivation); }) &&
         epoch->Input("AddDataContext", [&] {
           return session->AddDataContext(
               sc.address, RelationRole::kReference,
               {{"street", "street"}, {"postcode", "postcode"}});
         });
}

/// Records the final result's fingerprint and quality.
void RecordResult(Recorder* rec, const WranglingSession& session,
                  const Scenario& sc) {
  const Relation* result = session.result();
  if (result == nullptr || result->empty()) {
    rec->Problem("no wrangled result");
    return;
  }
  rec->Invariant("result", Fingerprint(result));
  ScenarioEvaluation eval = EvaluateScenario(*result, sc.truth);
  rec->result_quality_ = eval.overall;
  if (!(eval.overall > 0.0)) rec->Problem("result quality is 0");
}

// ---------------------------------------------------------------------
// bootstrap_3000: one cold session per epoch, timed from the first
// AddSource until Run() returns.
// ---------------------------------------------------------------------

void BootstrapEpoch(const Options& opt, Recorder* rec, EpochTrace* trace) {
  Clock::time_point t0 = Clock::now();
  Scenario sc =
      MakeScenario(opt.seed, kBootstrapProperties, kBootstrapPostcodes);
  WranglingSession session(MakeConfig(trace));
  bool ok = rec->Check(session.SetTargetSchema(TargetSchema()),
                       "SetTargetSchema");
  rec->epoch().setup_s = MsBetween(t0, Clock::now()) / 1e3;
  if (!ok) return;

  Epoch epoch(rec, trace);
  std::optional<CounterMark> before;
  if (trace != nullptr) before = BeginTracedStream(session, trace);
  epoch.BeginEvent();
  if (AddScenarioInputs(&epoch, &session, sc)) epoch.Run(&session);
  epoch.EndEvent("bootstrap");
  if (trace != nullptr) {
    RecordCounterDeltas(*before, CounterMark::Take(session), session, trace);
  }
  rec->epoch().source_rows = static_cast<double>(
      sc.rightmove.size() + sc.onthemarket.size() + sc.deprivation.size());
  RecordResult(rec, session, sc);
}

// ---------------------------------------------------------------------
// payg_refresh: a durable session (fsync = none) bootstrapped at 300
// properties, then a fixed schedule of user inputs, each followed by
// Run(): two of every three are truthful bedrooms feedback on a random
// result row, the third a batch of new Rightmove listings, and every
// fifteenth a user-context switch.
// ---------------------------------------------------------------------

UserContext PaygUserContext(bool crime_first) {
  UserContext uc;
  if (crime_first) {
    uc.AddStatement("completeness", "crimerank", "very strongly", "accuracy",
                    "property.type");
    uc.AddStatement("consistency", "property", "strongly", "completeness",
                    "property.bedrooms");
  } else {
    uc.AddStatement("accuracy", "property.type", "strongly", "completeness",
                    "crimerank");
    uc.AddStatement("completeness", "property.street", "moderately",
                    "completeness", "property.postcode");
  }
  return uc;
}

void PaygEpoch(const Options& opt, Recorder* rec, EpochTrace* trace,
               size_t epoch_index) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(opt.work_dir) /
                 ("payg-wal-" + std::to_string(epoch_index));
  std::error_code ec;
  fs::remove_all(dir, ec);

  Clock::time_point t0 = Clock::now();
  Scenario sc = MakeScenario(opt.seed, kPaygProperties, kPaygPostcodes);
  // New listings arrive from a later crawl of the same universe.
  ExtractionErrorOptions later_opts;
  later_opts.seed = opt.seed * 31 + 5;
  later_opts.coverage = 1.0;
  later_opts.bedrooms_area_rate = 0.18;
  Relation later = ExtractRightmove(sc.truth, later_opts);
  WranglerConfig config = MakeConfig(trace);
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  config.durability.fsync = FsyncPolicy::kNone;
  std::optional<CounterMark> before;
  {
    WranglingSession session(config);
    Epoch epoch(rec, trace);
    bool ok = rec->Check(session.durability_open_status(), "durable open") &&
              rec->Check(session.SetTargetSchema(TargetSchema()),
                         "SetTargetSchema") &&
              AddScenarioInputs(&epoch, &session, sc) && epoch.Run(&session);
    rec->epoch().setup_s = MsBetween(t0, Clock::now()) / 1e3;
    if (!ok || session.result() == nullptr) {
      rec->Problem("payg bootstrap failed");
      return;
    }
    if (trace != nullptr) before = BeginTracedStream(session, trace);

    Rng rng(opt.seed * 7919 + 13);
    size_t next_listing = 0;
    bool crime_first = false;
    for (size_t i = 0; i < kPaygEvents; ++i) {
      // The user's input is prepared before the event's clock starts.
      std::string kind;
      const char* call = nullptr;
      std::function<Status()> input;
      if (i % 15 == 14) {
        kind = "user_context";
        call = "SetUserContext";
        crime_first = !crime_first;
        input = [&session, uc = PaygUserContext(crime_first)] {
          return session.SetUserContext(uc);
        };
      } else if (i % 3 == 2) {
        kind = "source";
        call = "AddSource";
        Relation batch(later.schema());
        for (size_t k = 0; k < kPaygBatchRows && next_listing < later.size();
             ++k) {
          batch.InsertUnchecked(later.rows()[next_listing++]);
        }
        input = [&session, batch = std::move(batch)] {
          return session.AddSource(batch);
        };
      } else {
        kind = "feedback";
        call = "AddFeedback";
        const Relation* result = session.result();
        std::vector<Tuple> rows = result->rows();
        std::sort(rows.begin(), rows.end());
        const Tuple& row = rows[rng.Index(rows.size())];
        size_t bed = *result->schema().AttributeIndex("bedrooms");
        std::optional<double> v = row.at(bed).AsDouble();
        FeedbackPolarity polarity = v.has_value() && *v > 8.0
                                        ? FeedbackPolarity::kIncorrect
                                        : FeedbackPolarity::kCorrect;
        input = [&session, item = FeedbackItem{row, "bedrooms", polarity}] {
          return session.AddFeedback(item);
        };
      }
      epoch.BeginEvent();
      bool input_ok = epoch.Input(call, input);
      if (input_ok) epoch.Run(&session);
      epoch.EndEvent(kind);
      if (session.result() == nullptr) {
        rec->Problem("payg: result vanished");
        break;
      }
    }
    if (trace != nullptr) {
      RecordCounterDeltas(*before, CounterMark::Take(session), session,
                          trace);
    }
    rec->Invariant("feedback_rows",
                   std::to_string(session.state().feedback.items().size()));
    RecordResult(rec, session, sc);
  }
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// vadalog_analytics: 1000 properties over 300 postcodes plus one user
// VadalogTransducer. link(postcode, postcode) starts as 20 disjoint
// chains of 10 postcodes; each event extends one chain by a link from its
// tail to a spare postcode, so every insert grows the reach set (the
// transducer always writes, then re-runs once and writes nothing) and the
// reach set grows linearly rather than quadratically.
// ---------------------------------------------------------------------

/// Positive prices of the result's rows by postcode.
std::map<Value, std::vector<Value>> PricesByPostcode(const Relation& result) {
  size_t pc = *result.schema().AttributeIndex("postcode");
  size_t price = *result.schema().AttributeIndex("price");
  std::map<Value, std::vector<Value>> prices;
  for (const Tuple& row : result.rows()) {
    std::optional<double> p = row.at(price).AsDouble();
    if (p.has_value() && *p > 0) prices[row.at(pc)].push_back(row.at(price));
  }
  return prices;
}

/// Distinct positive prices of result rows in postcodes reachable from
/// each link source — what reach_stats must count.
std::map<Value, size_t> ExpectedReachStats(
    const std::vector<std::pair<Value, Value>>& links, const Relation& result) {
  std::map<Value, std::vector<Value>> out;
  for (const auto& [from, to] : links) out[from].push_back(to);
  std::map<Value, std::vector<Value>> prices_by_postcode =
      PricesByPostcode(result);
  std::map<Value, size_t> expected;
  for (const auto& [start, next] : out) {
    std::set<Value> seen;
    std::vector<Value> stack = next;
    while (!stack.empty()) {
      Value v = stack.back();
      stack.pop_back();
      if (!seen.insert(v).second) continue;
      auto it = out.find(v);
      if (it != out.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
    std::set<Value> prices;
    for (const Value& q : seen) {
      auto it = prices_by_postcode.find(q);
      if (it != prices_by_postcode.end()) {
        prices.insert(it->second.begin(), it->second.end());
      }
    }
    if (!prices.empty()) expected[start] = prices.size();
  }
  return expected;
}

/// Replays the analytics program against the KB through the reasoner's
/// public API, timing each phase, and checks its facts are in the KB.
void ReplayAnalytics(const WranglingSession& session, Recorder* rec,
                     EpochTrace* trace) {
  auto& c = trace->counters;
  Clock::time_point t0 = Clock::now();
  Result<datalog::Program> program = datalog::Parser::Parse(kAnalyticsProgram);
  Clock::time_point t1 = Clock::now();
  c["datalog.parse_ms"] += MsBetween(t0, t1);
  if (!rec->Check(program.status(), "replay Parse")) return;
  datalog::Database db;
  datalog::LoadReferencedRelations(program.value(), session.kb(), &db);
  Clock::time_point t2 = Clock::now();
  c["datalog.load_ms"] += MsBetween(t1, t2);
  datalog::Evaluator eval(program.value());
  Status prepared = eval.Prepare();
  Clock::time_point t3 = Clock::now();
  c["datalog.prepare_ms"] += MsBetween(t2, t3);
  if (!rec->Check(prepared, "replay Prepare")) return;
  datalog::EvalStats stats;
  Status ran = eval.Run(&db, &stats);
  c["datalog.run_ms"] += MsBetween(t3, Clock::now());
  if (!rec->Check(ran, "replay Run")) return;
  c["datalog.replay_join_work"] += static_cast<double>(
      stats.join_probes + stats.index_probes + stats.index_candidates);
  c["datalog.replay_iterations"] += static_cast<double>(stats.iterations);
  c["datalog.replay_facts_derived"] +=
      static_cast<double>(stats.facts_derived);
  const Relation* out = session.kb().FindRelation(kAnalyticsOutput);
  for (const Tuple& fact : db.facts(kAnalyticsOutput)) {
    if (out == nullptr || !out->Contains(fact)) {
      rec->Problem("replayed fact missing from KB: " + fact.ToString());
      return;
    }
  }
}

void AnalyticsEpoch(const Options& opt, Recorder* rec, EpochTrace* trace) {
  Clock::time_point t0 = Clock::now();
  Scenario sc =
      MakeScenario(opt.seed, kAnalyticsProperties, kAnalyticsPostcodes);
  std::vector<std::string> postcodes = sc.truth.postcodes;
  std::sort(postcodes.begin(), postcodes.end());
  Rng rng(opt.seed * 104729 + 7);
  rng.Shuffle(&postcodes);
  const size_t chained = kAnalyticsChains * kAnalyticsChainLength;
  if (postcodes.size() <= chained) {
    rec->Problem("analytics: too few postcodes");
    return;
  }
  std::vector<std::pair<Value, Value>> links;
  std::vector<Value> tails;
  for (size_t c = 0; c < kAnalyticsChains; ++c) {
    for (size_t k = 0; k + 1 < kAnalyticsChainLength; ++k) {
      size_t at = c * kAnalyticsChainLength + k;
      links.emplace_back(Value::String(postcodes[at]),
                         Value::String(postcodes[at + 1]));
    }
    tails.push_back(
        Value::String(postcodes[(c + 1) * kAnalyticsChainLength - 1]));
  }

  WranglingSession session(MakeConfig(trace));
  Epoch epoch(rec, trace);
  bool ok =
      rec->Check(session.SetTargetSchema(TargetSchema()), "SetTargetSchema") &&
      rec->Check(session.kb().CreateRelation(
                     Schema::Untyped("link", {"from", "to"})),
                 "CreateRelation") &&
      rec->Check(session.AddTransducer(std::make_unique<VadalogTransducer>(
                     "reach_analytics", "analytics",
                     "ready() :- sys_relation_nonempty(\"wrangled_result\"), "
                     "sys_relation_nonempty(\"link\").",
                     kAnalyticsProgram,
                     std::vector<std::string>{kAnalyticsOutput})),
                 "AddTransducer");
  for (const auto& [from, to] : links) {
    if (!ok) break;
    ok = rec->Check(session.kb().Insert("link", Tuple({from, to})), "Insert");
  }
  ok = ok && AddScenarioInputs(&epoch, &session, sc) && epoch.Run(&session);
  rec->epoch().setup_s = MsBetween(t0, Clock::now()) / 1e3;
  if (!ok || session.result() == nullptr) {
    rec->Problem("analytics bootstrap failed");
    return;
  }

  // Extend chains only to postcodes with priced listings, so every insert
  // changes reach_stats and each refresh costs the same two evaluations.
  std::map<Value, std::vector<Value>> priced =
      PricesByPostcode(*session.result());
  std::vector<Value> spares;
  for (size_t k = chained; k < postcodes.size(); ++k) {
    Value v = Value::String(postcodes[k]);
    if (priced.count(v) > 0) spares.push_back(v);
  }
  if (spares.size() < kAnalyticsEvents) {
    rec->Problem("analytics: too few priced spare postcodes");
    return;
  }

  std::optional<CounterMark> before;
  if (trace != nullptr) before = BeginTracedStream(session, trace);
  for (size_t j = 0; j < kAnalyticsEvents; ++j) {
    size_t c = j % kAnalyticsChains;
    const Value& spare = spares[j];
    links.emplace_back(tails[c], spare);
    Tuple link({tails[c], spare});
    tails[c] = spare;
    epoch.BeginEvent();
    if (epoch.Input("kb().Insert", [&] {
          return session.kb().Insert("link", link);
        })) {
      epoch.Run(&session);
    }
    epoch.EndEvent("link");
    if (trace != nullptr) ReplayAnalytics(session, rec, trace);
  }
  if (trace != nullptr) {
    RecordCounterDeltas(*before, CounterMark::Take(session), session, trace);
  }
  RecordResult(rec, session, sc);

  const Relation* stats = session.kb().FindRelation(kAnalyticsOutput);
  rec->Invariant(kAnalyticsOutput, Fingerprint(stats));
  if (session.result() == nullptr || stats == nullptr) {
    rec->Problem("analytics: no reach_stats");
    return;
  }
  std::map<Value, size_t> expected =
      ExpectedReachStats(links, *session.result());
  if (expected.empty()) rec->Problem("analytics: nothing reachable");
  for (const auto& [start, count] : expected) {
    Tuple want({start, Value::Int(static_cast<int64_t>(count))});
    if (!stats->Contains(want)) {
      rec->Problem("analytics: reach_stats lacks " + want.ToString());
      return;
    }
  }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

std::string Str(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

/// Per-epoch means over the traced epochs, flattened to layer metrics.
std::map<std::string, double> LayerMetrics(const std::vector<EpochTrace>& ts,
                                           Recorder* rec) {
  std::map<std::string, double> sum;
  for (const EpochTrace& t : ts) {
    double body_ms = 0.0, calls = 0.0, effective = 0.0;
    for (const char* a : kActivities) {
      auto it = t.bodies.find(a);
      BodyTotals b = it == t.bodies.end() ? BodyTotals() : it->second;
      sum[std::string("body.") + a + ".ms"] += b.ms;
      sum[std::string("body.") + a + ".calls"] += b.calls;
      sum[std::string("body.") + a + ".effective_calls"] += b.effective_calls;
    }
    for (const auto& [a, b] : t.bodies) {
      body_ms += b.ms;
      calls += b.calls;
      effective += b.effective_calls;
      if (std::find_if(std::begin(kActivities), std::end(kActivities),
                       [&](const char* k) { return a == k; }) ==
          std::end(kActivities)) {
        rec->Problem("unexpected transducer activity " + a);
      }
    }
    // orch.self_ms is Run time minus body time, so it only reconciles if
    // no Run contains more body time than its own wall.
    double self_ms = t.run_ms - body_ms;
    if (t.min_self_ms < -1e-3) {
      rec->Problem("reconciliation: transducer bodies outlast their Run");
    }
    if (t.gap_ms > kReconcileEpochShare * t.event_ms) {
      rec->Problem("reconciliation: input + run leave " +
                   std::to_string(t.gap_ms) + " of " +
                   std::to_string(t.event_ms) + " ms of event wall");
    }
    sum["wrangler.run_ms"] += t.run_ms;
    sum["orch.self_ms"] += self_ms;
    sum["kb.input_ms"] += t.input_ms;
    sum["orch.steps"] += static_cast<double>(t.orch.steps);
    sum["orch.effective_steps"] += static_cast<double>(t.orch.effective_steps);
    sum["orch.dependency_checks"] +=
        static_cast<double>(t.orch.dependency_checks);
    sum["orch.failures"] += static_cast<double>(t.orch.failures);
    sum["orch.retries"] += static_cast<double>(t.orch.retries);
    sum["orch.rollbacks"] += static_cast<double>(t.orch.rollbacks);
    sum["body.effective_call_ratio"] += calls > 0 ? effective / calls : 0.0;
    sum["orch.effective_step_ratio"] +=
        t.orch.steps > 0 ? static_cast<double>(t.orch.effective_steps) /
                               static_cast<double>(t.orch.steps)
                         : 0.0;
    auto counter = [&t](const char* name) {
      auto it = t.counters.find(name);
      return it == t.counters.end() ? 0.0 : it->second;
    };
    double facts = counter("kb.facts_added");
    sum["kb.wal_bytes_per_fact"] +=
        facts > 0 ? counter("kb.wal_bytes") / facts : 0.0;
    for (const auto& [k, v] : t.counters) sum[k] += v;
  }
  for (auto& [k, v] : sum) v /= static_cast<double>(ts.size());
  return sum;
}

/// Counters that must repeat exactly in every traced epoch.
void CheckTracedDeterminism(const std::vector<EpochTrace>& ts, Recorder* rec) {
  for (const EpochTrace& t : ts) {
    std::string key;
    key += "steps=" + std::to_string(t.orch.steps);
    key += " dep_checks=" + std::to_string(t.orch.dependency_checks);
    for (const char* k : {"datalog.join_work", "kb.facts_added",
                          "kb.wal_bytes"}) {
      auto it = t.counters.find(k);
      key += std::string(" ") + k + "=" +
             Num(it == t.counters.end() ? 0.0 : it->second);
    }
    for (const auto& [a, b] : t.bodies) key += " " + a + "=" + Num(b.calls);
    rec->Invariant("traced counters", key);
  }
}

void PrintReport(const Options& opt, Recorder* rec, size_t symbols_at_start) {
  std::map<std::string, double> layers;
  if (opt.trace) {
    CheckTracedDeterminism(rec->traces_, rec);
    layers = LayerMetrics(rec->traces_, rec);
    // The global symbol table never frees, and every epoch interns the
    // same values, so its growth over the run is the first epoch's.
    layers["datalog.symbols"] = static_cast<double>(
        datalog::SymbolTable::Global().size() - symbols_at_start);
  }
  std::string out = "{";
  out += "\"workload\":" + Str(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  out += ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"attempted\":" + std::to_string(rec->attempted_);
  out += ",\"failed\":" + std::to_string(rec->failed_);
  out += ",\"problems\":[";
  for (size_t i = 0; i < rec->problems_.size(); ++i) {
    out += (i > 0 ? "," : "") + Str(rec->problems_[i]);
  }
  out += "],\"epochs\":[";
  for (size_t i = 0; i < rec->epochs_.size(); ++i) {
    const EpochSample& e = rec->epochs_[i];
    out += i > 0 ? "," : "";
    out += "{\"traced\":" + std::string(e.traced ? "true" : "false");
    out += ",\"setup_s\":" + Num(e.setup_s);
    out += ",\"source_rows\":" + Num(e.source_rows);
    out += ",\"latency_ms\":{";
    bool first = true;
    for (const auto& [kind, values] : e.latency_ms) {
      out += (first ? "" : ",") + Str(kind) + ":" + NumList(values);
      first = false;
    }
    out += "}}";
  }
  out += "],\"result_quality\":" + Num(rec->result_quality_);
  out += ",\"peak_rss_bytes\":" +
         Num(static_cast<double>(obs::SampleProcessMemory().peak_rss_bytes));
  out += ",\"fingerprints\":{";
  bool first = true;
  for (const auto& [key, value] : rec->invariants_) {
    if (key == "traced counters") continue;
    out += (first ? "" : ",") + Str(key) + ":" + Str(value);
    first = false;
  }
  out += "}";
  if (opt.trace) {
    out += ",\"layers\":{";
    first = true;
    for (const auto& [k, v] : layers) {
      out += (first ? "" : ",") + Str(k) + ":" + Num(v);
      first = false;
    }
    out += "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: vada_perfbench --workload "
               "bootstrap_3000|payg_refresh|vadalog_analytics --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0)) return Usage();
  std::function<void(Recorder*, EpochTrace*, size_t)> run_epoch;
  if (opt.workload == "bootstrap_3000") {
    run_epoch = [&](Recorder* r, EpochTrace* t, size_t) {
      BootstrapEpoch(opt, r, t);
    };
  } else if (opt.workload == "payg_refresh") {
    std::error_code ec;
    std::filesystem::create_directories(opt.work_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", opt.work_dir.c_str());
      return 2;
    }
    run_epoch = [&](Recorder* r, EpochTrace* t, size_t k) {
      PaygEpoch(opt, r, t, k);
    };
  } else if (opt.workload == "vadalog_analytics") {
    run_epoch = [&](Recorder* r, EpochTrace* t, size_t) {
      AnalyticsEpoch(opt, r, t);
    };
  } else {
    return Usage();
  }

  Recorder rec;
  size_t symbols_at_start = datalog::SymbolTable::Global().size();
  Clock::time_point start = Clock::now();
  // Traced runs need a plain and a traced epoch (ABBA: plain, traced,
  // traced, plain, ...) to compare their walls.
  const size_t min_epochs = opt.trace ? 2 : 1;
  for (size_t k = 0;; ++k) {
    double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
    if (elapsed_s >= opt.seconds && k >= min_epochs) break;
    if (!rec.problems_.empty()) break;
    bool traced = opt.trace && (k % 4 == 1 || k % 4 == 2);
    rec.epochs_.emplace_back();
    rec.epoch().traced = traced;
    if (traced) {
      rec.traces_.emplace_back();
      run_epoch(&rec, &rec.traces_.back(), k);
    } else {
      run_epoch(&rec, nullptr, k);
    }
  }
  PrintReport(opt, &rec, symbols_at_start);
  return 0;
}

}  // namespace
}  // namespace vada::perfbench

int main(int argc, char** argv) { return vada::perfbench::Main(argc, argv); }
