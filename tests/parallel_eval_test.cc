// Body fan-out (DESIGN.md §5e): mapping execution evaluates each mapping
// as a pool task over source snapshots the calling thread borrowed from
// the snapshot cache, and a session at any thread count writes the same
// knowledge base, row for row, and the same trace as one at one thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/snapshot_cache.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/knowledge_base.h"
#include "mapping/executor.h"
#include "obs/chrome_trace.h"
#include "transducer/network.h"
#include "transducer/transducer.h"
#include "wrangler/session.h"
#include "kb_digest_test_util.h"

namespace vada::datalog {
namespace {

/// Reference mapping execution: the sources copied into a database, the
/// rule run, the result's facts materialized and sorted as Tuples — the
/// order the id-level sort must reproduce.
std::vector<Tuple> ReferenceRows(const Mapping& mapping,
                                 const KnowledgeBase& kb,
                                 const PlannerOptions& planner) {
  Database db;
  for (const std::string& source : mapping.source_relations) {
    const Relation* rel = kb.FindRelation(source);
    if (rel != nullptr) db.LoadRelation(*rel);
  }
  Result<Program> program = Parser::Parse(mapping.rule_text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  EvalOptions options;
  options.planner = planner;
  Evaluator eval(std::move(program).value(), options);
  EXPECT_TRUE(eval.Prepare().ok());
  EXPECT_TRUE(eval.Run(&db).ok());
  std::vector<Tuple> rows = db.facts(mapping.result_predicate);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Row-for-row equality that also holds for NaN cells (Value equality
/// never does): the cells' unambiguous literals are compared instead.
bool SameRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t k = 0; k < a[i].size(); ++k) {
      if (a[i].at(k).ToLiteral() != b[i].at(k).ToLiteral()) return false;
    }
  }
  return true;
}

/// Runs `copies` tasks per mapping on a 3-worker pool, each evaluating
/// over snapshots the calling thread took (so tasks of one mapping share
/// snapshots and race on their lazily built indexes), and expects every
/// task's relation to equal the reference and Execute without a cache,
/// row for row, in order.
void ExpectFanOutMatchesExecute(const std::vector<Mapping>& mappings,
                                const std::map<std::string, Schema>& targets,
                                const KnowledgeBase& kb,
                                const PlannerOptions& planner,
                                size_t copies) {
  SnapshotCache cache;
  MappingExecutor cached(planner);
  cached.set_snapshot_cache(&cache);
  std::vector<SourceSnapshots> sources;
  for (const Mapping& m : mappings) sources.push_back(cached.Snapshots(m, kb));

  const size_t n = mappings.size() * copies;
  std::vector<Result<MappingRows>> rows(n, Status::Internal("not evaluated"));
  ThreadPool pool(3);
  pool.ParallelFor(n, [&](size_t t) {
    rows[t] = cached.Evaluate(mappings[t / copies], sources[t / copies]);
  });

  MappingExecutor copying(planner);
  for (size_t t = 0; t < n; ++t) {
    const Mapping& m = mappings[t / copies];
    SCOPED_TRACE("mapping " + m.id + " copy " + std::to_string(t % copies));
    ASSERT_TRUE(rows[t].ok()) << rows[t].status().ToString();
    const Schema& target = targets.at(m.id);
    Result<Relation> pooled =
        MappingExecutor::ToRelation(m, target, rows[t].value());
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    Result<Relation> executed = copying.Execute(m, target, kb);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_EQ(pooled.value().schema(), executed.value().schema());
    EXPECT_TRUE(SameRows(pooled.value().rows(), executed.value().rows()));
    EXPECT_TRUE(SameRows(pooled.value().rows(), ReferenceRows(m, kb, planner)));
  }
}

void InsertRelation(KnowledgeBase* kb, const Relation& rel) {
  ASSERT_TRUE(kb->CreateRelation(rel.schema()).ok());
  ASSERT_TRUE(kb->InsertAll(rel).ok());
}

/// Three edge relations plus `src` and `node`, as KB relations.
void FillRandomKb(Rng* rng, int nodes, int edges, KnowledgeBase* kb) {
  for (int e = 0; e < 3; ++e) {
    Relation rel(Schema::Untyped("e" + std::to_string(e), {"x", "y"}));
    for (int i = 0; i < edges; ++i) {
      ASSERT_TRUE(rel.Insert(Tuple({Value::Int(rng->UniformInt(0, nodes - 1)),
                                    Value::Int(rng->UniformInt(0, nodes - 1))}))
                      .ok());
    }
    InsertRelation(kb, rel);
  }
  Relation src(Schema::Untyped("src", {"x"}));
  Relation node(Schema::Untyped("node", {"x"}));
  for (int i = 0; i < nodes; ++i) {
    if (rng->Bernoulli(0.3)) {
      ASSERT_TRUE(src.Insert(Tuple({Value::Int(i)})).ok());
    }
    ASSERT_TRUE(node.Insert(Tuple({Value::Int(i)})).ok());
  }
  InsertRelation(kb, src);
  InsertRelation(kb, node);
}

/// Random positive recursive program over e0..e2 / p0..p3 plus fixed
/// negation and aggregation rules — exercises every evaluation feature
/// on pool workers.
std::string RandomProgram(Rng* rng) {
  std::ostringstream p;
  p << "p0(X, Y) :- e0(X, Y).\n";
  int rules = static_cast<int>(rng->UniformInt(4, 8));
  for (int r = 0; r < rules; ++r) {
    int head = static_cast<int>(rng->UniformInt(0, 3));
    switch (rng->UniformInt(0, 2)) {
      case 0:
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 2)
          << "(X, Y).\n";
        break;
      case 1:
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 2)
          << "(X, Z), p" << rng->UniformInt(0, 3) << "(Z, Y).\n";
        break;
      default:
        p << "p" << head << "(X, Y) :- p" << rng->UniformInt(0, 3)
          << "(X, Z), p" << rng->UniformInt(0, 3) << "(Z, Y).\n";
        break;
    }
  }
  p << "reach(X) :- src(X).\n"
       "reach(Y) :- reach(X), e0(X, Y).\n"
       "unreach(X) :- node(X), not reach(X).\n"
       "fanout(X, count<Y>) :- p0(X, Y).\n";
  return p.str();
}

/// One mapping per goal predicate of `program`, each with a target
/// schema of the goal's arity.
void GoalMappings(const std::string& program,
                  const std::vector<std::string>& sources,
                  const std::map<std::string, size_t>& goals,
                  std::vector<Mapping>* mappings,
                  std::map<std::string, Schema>* targets) {
  for (const auto& [goal, arity] : goals) {
    Mapping m;
    m.id = "m_" + goal;
    m.source_relations = sources;
    m.target_relation = "target";
    m.result_predicate = goal;
    m.rule_text = program;
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
    targets->emplace(m.id, Schema::Untyped("target", attrs));
    mappings->push_back(std::move(m));
  }
}

/// Property: evaluating random programs as concurrent pool tasks over
/// shared snapshots is bit-identical to sequential evaluation over
/// copies — same rows, same order — with composite indexes forced onto
/// even the smallest snapshots so that tasks race to build them.
class ParallelSequentialEquivalence : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSequentialEquivalence,
                         ::testing::Range(0, 12));

TEST_P(ParallelSequentialEquivalence, BitIdenticalOnRandomPrograms) {
  Rng rng(GetParam());
  KnowledgeBase kb;
  FillRandomKb(&rng, static_cast<int>(rng.UniformInt(4, 14)),
               static_cast<int>(rng.UniformInt(5, 45)), &kb);
  std::vector<Mapping> mappings;
  std::map<std::string, Schema> targets;
  GoalMappings(RandomProgram(&rng), {"e0", "e1", "e2", "src", "node"},
               {{"p0", 2}, {"p1", 2}, {"p2", 2}, {"p3", 2}, {"reach", 1},
                {"unreach", 1}, {"fanout", 2}},
               &mappings, &targets);
  for (const PlannerOptions& planner :
       {PlannerOptions{}, PlannerOptions{.indexes = true, .reorder = true,
                                         .min_index_size = 1}}) {
    ExpectFanOutMatchesExecute(mappings, targets, kb, planner, /*copies=*/3);
  }
}

TEST(ParallelEvalTest, LargeRelationMatchesSequential) {
  // Twelve tasks over one 2000-row snapshot, next to a recursive chain
  // that adds recursion depth.
  KnowledgeBase kb;
  Relation big(Schema::Untyped("big", {"x", "z"}));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(big.Insert(Tuple({Value::Int(i), Value::Int(i % 40)})).ok());
  }
  Relation edge(Schema::Untyped("edge", {"x", "y"}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(edge.Insert(Tuple({Value::Int(i), Value::Int(i + 1)})).ok());
  }
  InsertRelation(&kb, big);
  InsertRelation(&kb, edge);
  std::vector<Mapping> mappings;
  std::map<std::string, Schema> targets;
  GoalMappings(
      "joined(X, Y) :- big(X, Z), edge(Z, Y).\n"
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "deep(X, Y) :- big(X, Z), tc(Z, Y).\n",
      {"big", "edge"}, {{"joined", 2}, {"tc", 2}, {"deep", 2}}, &mappings,
      &targets);
  ExpectFanOutMatchesExecute(mappings, targets, kb, PlannerOptions{},
                             /*copies=*/4);
}

/// Naive evaluation over borrowed snapshots, eight tasks at once on a
/// pool, derives what sequential naive evaluation over a copy derives,
/// in the same order.
TEST(ParallelEvalTest, NaiveModeAlsoBitIdentical) {
  Rng rng(77);
  KnowledgeBase kb;
  FillRandomKb(&rng, 10, 30, &kb);
  Result<Program> program = Parser::Parse(RandomProgram(&rng));
  ASSERT_TRUE(program.ok());
  const std::vector<std::string> sources = {"e0", "e1", "e2", "src", "node"};
  EvalOptions naive;
  naive.semi_naive = false;

  auto facts_of = [](const Database& db) {
    std::map<std::string, std::vector<Tuple>> out;
    for (const std::string& pred : db.Predicates()) out[pred] = db.facts(pred);
    return out;
  };
  Database copy;
  for (const std::string& s : sources) copy.LoadRelation(*kb.FindRelation(s));
  Evaluator sequential(program.value(), naive);
  ASSERT_TRUE(sequential.Prepare().ok());
  EvalStats expected_stats;
  ASSERT_TRUE(sequential.Run(&copy, &expected_stats).ok());
  const auto expected = facts_of(copy);

  SnapshotCache cache;
  std::vector<std::shared_ptr<const Database>> snapshots;
  for (const std::string& s : sources) snapshots.push_back(cache.Get(kb, s));
  constexpr size_t kTasks = 8;
  std::vector<std::map<std::string, std::vector<Tuple>>> got(kTasks);
  std::vector<EvalStats> stats(kTasks);
  std::vector<char> ran(kTasks, 0);  // not vector<bool>: tasks write it
  ThreadPool pool(3);
  pool.ParallelFor(kTasks, [&](size_t t) {
    Database db;
    for (const auto& snap : snapshots) db.AttachShared(snap);
    Evaluator eval(program.value(), naive);
    ran[t] = eval.Prepare().ok() && eval.Run(&db, &stats[t]).ok();
    got[t] = facts_of(db);
  });
  for (size_t t = 0; t < kTasks; ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    EXPECT_TRUE(ran[t]);
    EXPECT_EQ(got[t], expected);
    EXPECT_EQ(stats[t].iterations, expected_stats.iterations);
    EXPECT_EQ(stats[t].facts_derived, expected_stats.facts_derived);
    EXPECT_EQ(stats[t].rule_applications, expected_stats.rule_applications);
  }
}

/// Values of every type, nulls and NaN in random relations, under random
/// projection and join mappings with constants: the id-level sort must
/// order rows exactly as sorting the Tuples did.
TEST(ParallelEvalTest, RandomProjectionAndJoinMappingsMatchExecute) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Value> pool_values = {
        Value::Int(1),          Value::Int(2),
        Value::Int(3),          Value::Double(1.0),
        Value::Double(2.5),     Value::Double(std::nan("")),
        Value::String("1"),     Value::String("a"),
        Value::String("b c"),   Value::Bool(true),
        Value::Bool(false),     Value::Null()};
    KnowledgeBase kb;
    for (const char* name : {"s1", "s2"}) {
      Relation rel(Schema::Untyped(name, {"a", "b", "c"}));
      const size_t rows = 5 + rng.Index(40);
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_TRUE(rel.InsertUnchecked(Tuple({rng.Choice(pool_values),
                                               rng.Choice(pool_values),
                                               rng.Choice(pool_values)}))
                        .ok());
      }
      InsertRelation(&kb, rel);
    }
    const std::vector<std::string> vars = {"X", "Y", "Z"};
    std::vector<Mapping> mappings;
    std::map<std::string, Schema> targets;
    for (size_t i = 0; i < 6; ++i) {
      Mapping m;
      m.id = "m" + std::to_string(i);
      m.result_predicate = "mapping_result_" + m.id;
      m.target_relation = "target";
      std::string head;
      std::string body;
      if (i % 2 == 0) {
        // Projection, with a null column and sometimes a constant filter.
        const std::string src = rng.Bernoulli(0.5) ? "s1" : "s2";
        m.source_relations = {src};
        head = rng.Choice(vars) + ", null, " + rng.Choice(vars);
        body = src + "(X, Y, Z)";
        if (rng.Bernoulli(0.5)) body += ", X != 2";
      } else {
        // Join on one column, the head drawing from both sides.
        m.source_relations = {"s1", "s2"};
        head = "X, W, " + rng.Choice(vars);
        body = "s1(X, Y, Z), s2(Y, W, V)";
      }
      m.rule_text = m.result_predicate + "(" + head + ") :- " + body + ".";
      targets.emplace(m.id, Schema::Untyped("target", {"t0", "t1", "t2"}));
      mappings.push_back(std::move(m));
    }
    ExpectFanOutMatchesExecute(mappings, targets, kb, PlannerOptions{},
                               /*copies=*/2);
  }
}

PropertyUniverseOptions DemoUniverse() {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 12;
  uopts.seed = 9;
  return uopts;
}

Schema DemoTarget() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

/// A demo bootstrap: two portals, deprivation and the address reference
/// (instance matching, CFD repair and quality scoring all run).
std::unique_ptr<WranglingSession> DemoBootstrap(const WranglerConfig& config) {
  GroundTruth truth = GeneratePropertyUniverse(DemoUniverse());
  ExtractionErrorOptions rm_err;
  rm_err.seed = 11;
  ExtractionErrorOptions otm_err;
  otm_err.seed = 12;
  auto session = std::make_unique<WranglingSession>(config);
  EXPECT_TRUE(session->SetTargetSchema(DemoTarget()).ok());
  EXPECT_TRUE(session->AddSource(ExtractRightmove(truth, rm_err)).ok());
  EXPECT_TRUE(session->AddSource(ExtractOnthemarket(truth, otm_err)).ok());
  EXPECT_TRUE(session->AddSource(GenerateDeprivation(truth)).ok());
  EXPECT_TRUE(session
                  ->AddDataContext(GenerateAddressReference(truth),
                                   RelationRole::kReference,
                                   {{"street", "street"},
                                    {"postcode", "postcode"}})
                  .ok());
  EXPECT_TRUE(session->Run().ok());
  return session;
}

WranglerConfig Threads(size_t threads) {
  WranglerConfig config;
  config.parallelism.threads = threads;
  return config;
}

TEST(ParallelEvalTest, DemoMappingsOverBorrowedSnapshotsMatchExecute) {
  std::unique_ptr<WranglingSession> session = DemoBootstrap(Threads(1));
  std::vector<Mapping> mappings = session->mappings();
  ASSERT_GE(mappings.size(), 2u);
  std::map<std::string, Schema> targets;
  for (const Mapping& m : mappings) targets.emplace(m.id, DemoTarget());
  ExpectFanOutMatchesExecute(mappings, targets, session->kb(),
                             PlannerOptions{}, /*copies=*/2);
}

/// Every relation's rows in stored order, with its role.
std::map<std::string, std::vector<Tuple>> StoredRows(const KnowledgeBase& kb) {
  std::map<std::string, std::vector<Tuple>> out;
  for (const std::string& name : kb.RelationNames()) {
    out[name] = kb.FindRelation(name)->rows();
  }
  return out;
}

std::vector<std::string> TraceLines(const ExecutionTrace& trace) {
  std::vector<std::string> lines;
  for (const TraceEvent& e : trace.events()) {
    std::string line = e.transducer + " v" + std::to_string(e.version_before) +
                       "->" + std::to_string(e.version_after) + " +" +
                       std::to_string(e.facts_added) + "/-" +
                       std::to_string(e.facts_removed) + " eligible=";
    for (const std::string& t : e.eligible) line += t + ",";
    lines.push_back(line);
  }
  return lines;
}

/// A bootstrap at four threads runs its bodies' pieces on the pool and
/// ends where a one-thread bootstrap ends: the same KB (rows in stored
/// order included), trace and duplicate-detection work.
TEST(ParallelEvalTest, PooledBootstrapMatchesOneThreadDigestAndTrace) {
  std::unique_ptr<WranglingSession> inline_run = DemoBootstrap(Threads(1));
  std::unique_ptr<WranglingSession> pooled = DemoBootstrap(Threads(4));

  EXPECT_EQ(KbDigest(pooled->kb()), KbDigest(inline_run->kb()));
  EXPECT_EQ(StoredRows(pooled->kb()), StoredRows(inline_run->kb()));
  EXPECT_EQ(TraceLines(pooled->trace()), TraceLines(inline_run->trace()));
  const DedupStats& a = pooled->state().dedup_stats;
  const DedupStats& b = inline_run->state().dedup_stats;
  EXPECT_GT(b.pairs_considered, 0u);
  EXPECT_EQ(a.pairs_considered, b.pairs_considered);
  EXPECT_EQ(a.pairs_pruned, b.pairs_pruned);
  EXPECT_EQ(a.pairs_scored, b.pairs_scored);
  EXPECT_EQ(a.pairs_matched, b.pairs_matched);
  EXPECT_EQ(a.blocks_truncated, b.blocks_truncated);

  // Every body task goes through the pool's counter; one thread has no
  // pool and publishes none.
  EXPECT_GT(pooled->MetricsReport().snapshot.Value("vada_pool_tasks_total"),
            0.0);
  EXPECT_EQ(
      inline_run->MetricsReport().snapshot.Value("vada_pool_tasks_total"),
      0.0);
}

/// Builds the same three-transducer chain twice and compares the
/// orchestration byte for byte: the snapshot cache serves the
/// dependency queries but must not change scheduling, trace, stats or
/// results.
struct ChainRun {
  std::vector<std::string> executed;
  std::vector<std::vector<std::string>> eligible;
  size_t dependency_checks = 0;
  std::vector<Tuple> c_rows;
};

ChainRun RunChain(SnapshotCache* cache) {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  EXPECT_TRUE(kb.Insert("a", {Value::Int(1)}).ok());

  TransducerRegistry registry;
  auto copy_step = [](const std::string& from, const std::string& to) {
    return [from, to](KnowledgeBase* kb) -> Status {
      Relation out(Schema::Untyped(to, {"x"}));
      for (const Tuple& t : kb->GetRelation(from).value()->rows()) {
        VADA_RETURN_IF_ERROR(out.Insert(t));
      }
      return kb->ReplaceRelationIfChanged(out);
    };
  };
  EXPECT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "a_to_b", "map",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      copy_step("a", "b")))
                  .ok());
  EXPECT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "b_to_c", "map",
                      "ready() :- sys_relation_nonempty(\"b\").",
                      copy_step("b", "c")))
                  .ok());
  EXPECT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "noop", "map",
                      "ready() :- sys_relation_nonempty(\"missing\").",
                      copy_step("a", "unused")))
                  .ok());

  OrchestratorOptions options;
  options.snapshot_cache = cache;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  EXPECT_TRUE(orchestrator.Run(&kb, &stats).ok());

  ChainRun run;
  run.dependency_checks = stats.dependency_checks;
  for (const TraceEvent& e : orchestrator.trace().events()) {
    run.executed.push_back(e.transducer);
    run.eligible.push_back(e.eligible);
  }
  if (kb.HasRelation("c")) run.c_rows = kb.GetRelation("c").value()->rows();
  return run;
}

TEST(ParallelEvalTest, OrchestratorScanIdenticalWithAndWithoutCache) {
  ChainRun copying = RunChain(nullptr);
  SnapshotCache cache;
  ChainRun cached = RunChain(&cache);

  EXPECT_EQ(copying.executed, cached.executed);
  EXPECT_EQ(copying.eligible, cached.eligible);
  EXPECT_EQ(copying.dependency_checks, cached.dependency_checks);
  EXPECT_EQ(copying.c_rows, cached.c_rows);
  // The cache did real work: repeated scans of sys_* control relations
  // and the chain's inputs hit after the first miss.
  EXPECT_GT(cache.stats().hits, 0u);
}

/// End-to-end: a full wrangling session configured with 4 threads
/// produces the same result relation, in the same row order, as a
/// one-thread session.
TEST(ParallelEvalTest, SessionResultIdenticalUnderParallelConfig) {
  GroundTruth truth = GeneratePropertyUniverse(DemoUniverse());
  ExtractionErrorOptions err;
  err.seed = 11;
  Relation rightmove = ExtractRightmove(truth, err);

  auto run_session = [&](const WranglerConfig& config) {
    auto session = std::make_unique<WranglingSession>(config);
    EXPECT_TRUE(session->SetTargetSchema(DemoTarget()).ok());
    EXPECT_TRUE(session->AddSource(rightmove).ok());
    EXPECT_TRUE(session->Run().ok());
    std::vector<Tuple> rows;
    if (session->result() != nullptr) rows = session->result()->rows();
    std::vector<std::string> executed;
    for (const TraceEvent& e : session->trace().events()) {
      executed.push_back(e.transducer);
    }
    return std::make_pair(rows, executed);
  };

  auto expected = run_session(Threads(1));
  EXPECT_FALSE(expected.first.empty());
  auto actual = run_session(Threads(4));

  EXPECT_EQ(expected.first, actual.first);
  EXPECT_EQ(expected.second, actual.second);
}

/// Chrome-trace export of spans recorded on pool workers: spans recorded
/// concurrently inside ThreadPool::ParallelFor land on distinct lanes
/// (distinct trace tids), and the spans of each lane nest properly —
/// concurrent tasks never interleave on one trace row, which is what
/// makes the Perfetto view readable.
TEST(ParallelEvalTest, ChromeTraceSeparatesPoolWorkerSpans) {
  obs::SpanCollector collector;
  ThreadPool pool(3);
  // Each task holds its span until two threads have entered one, so the
  // loop cannot finish on the calling thread alone.
  std::atomic<size_t> entered{0};
  std::set<std::thread::id> threads;
  std::mutex threads_mutex;
  pool.ParallelFor(16, [&](size_t) {
    obs::ScopedSpan task(&collector, /*histogram=*/nullptr, "task", "test");
    {
      std::lock_guard<std::mutex> lock(threads_mutex);
      if (threads.insert(std::this_thread::get_id()).second) ++entered;
    }
    obs::ScopedSpan inner(&collector, /*histogram=*/nullptr, "inner", "test");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<obs::SpanRecord> spans = collector.spans();
  ASSERT_EQ(spans.size(), 32u);
  EXPECT_GE(collector.lanes(), 2u);

  // Within one lane spans obey stack discipline: any two either nest or
  // are disjoint. Interleaving would mean two threads shared a lane.
  std::map<uint64_t, std::vector<obs::SpanRecord>> by_lane;
  for (const obs::SpanRecord& s : spans) by_lane[s.lane].push_back(s);
  EXPECT_EQ(by_lane.size(), threads.size());
  for (const auto& [lane, lane_spans] : by_lane) {
    for (size_t i = 0; i < lane_spans.size(); ++i) {
      for (size_t j = i + 1; j < lane_spans.size(); ++j) {
        const obs::SpanRecord& a = lane_spans[i];
        const obs::SpanRecord& b = lane_spans[j];
        bool disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
        bool a_in_b = b.start_ns <= a.start_ns && a.end_ns <= b.end_ns;
        bool b_in_a = a.start_ns <= b.start_ns && b.end_ns <= a.end_ns;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "lane " << lane << ": spans " << a.name << " and " << b.name
            << " interleave";
      }
    }
  }

  // The export maps lanes to consecutive tids, so worker spans get their
  // own trace rows.
  obs::ChromeTraceBuilder builder;
  builder.AddSpans(collector, /*tid=*/2);
  std::string json = builder.ToJson();
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    size_t end = json.find_first_of(",}", pos);
    tids.insert(json.substr(pos, end - pos));
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(collector.lanes()));
  EXPECT_TRUE(tids.count("2") == 1);
  EXPECT_TRUE(tids.count("3") == 1);
}

}  // namespace
}  // namespace vada::datalog
