#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/snapshot_cache.h"
#include "extract/real_estate.h"
#include "kb/knowledge_base.h"
#include "obs/chrome_trace.h"
#include "transducer/network.h"
#include "transducer/transducer.h"
#include "wrangler/session.h"

namespace vada::datalog {
namespace {

/// Everything one evaluation produced, in exact stored order — the
/// bit-identity oracle (not sorted on purpose: parallel evaluation must
/// reproduce sequential row order, not just the set).
struct EvalOutput {
  std::map<std::string, std::vector<Tuple>> facts;
  EvalStats stats;

  bool operator==(const EvalOutput& o) const {
    return facts == o.facts && stats.iterations == o.stats.iterations &&
           stats.facts_derived == o.stats.facts_derived &&
           stats.rule_applications == o.stats.rule_applications &&
           stats.join_probes == o.stats.join_probes &&
           stats.index_probes == o.stats.index_probes &&
           stats.index_candidates == o.stats.index_candidates &&
           stats.index_builds == o.stats.index_builds;
  }
};

EvalOutput Evaluate(const Program& program, const Database& edb,
               const EvalOptions& options) {
  Database db = edb;
  Evaluator eval(program, options);
  EXPECT_TRUE(eval.Prepare().ok());
  EvalOutput out;
  EXPECT_TRUE(eval.Run(&db, &out.stats).ok());
  for (const std::string& pred : db.Predicates()) {
    out.facts[pred] = db.facts(pred);
  }
  return out;
}

Database RandomEdb(Rng* rng, int nodes, int edges) {
  Database db;
  for (int e = 0; e < 3; ++e) {
    std::string pred = "e" + std::to_string(e);
    for (int i = 0; i < edges; ++i) {
      db.Insert(pred, Tuple({Value::Int(rng->UniformInt(0, nodes - 1)),
                             Value::Int(rng->UniformInt(0, nodes - 1))}));
    }
  }
  for (int i = 0; i < nodes; ++i) {
    if (rng->Bernoulli(0.3)) db.Insert("src", Tuple({Value::Int(i)}));
    db.Insert("node", Tuple({Value::Int(i)}));
  }
  return db;
}

/// Random positive recursive program over e0..e2 / p0..p3 plus fixed
/// negation and aggregation rules — exercises every evaluation feature
/// under the parallel path.
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

/// Property: a pool-backed evaluation is bit-identical to the sequential
/// one — same facts, same per-predicate row order, same EvalStats — on
/// randomly generated programs.
class ParallelSequentialEquivalence : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSequentialEquivalence,
                         ::testing::Range(0, 12));

TEST_P(ParallelSequentialEquivalence, BitIdenticalOnRandomPrograms) {
  Rng rng(GetParam());
  Database edb = RandomEdb(&rng, static_cast<int>(rng.UniformInt(4, 14)),
                           static_cast<int>(rng.UniformInt(5, 45)));
  Result<Program> program = Parser::Parse(RandomProgram(&rng));
  ASSERT_TRUE(program.ok());

  EvalOptions sequential;
  EvalOutput expected = Evaluate(program.value(), edb, sequential);

  ThreadPool pool(3);
  EvalOptions parallel;
  parallel.pool = &pool;
  EvalOutput actual = Evaluate(program.value(), edb, parallel);

  EXPECT_TRUE(expected == actual) << "seed " << GetParam();
}

TEST(ParallelEvalTest, LargeRelationMatchesSequential) {
  // Rules over a 2000-row relation run as concurrent tasks next to the
  // recursive chain, which adds recursion depth.
  Database edb;
  for (int i = 0; i < 2000; ++i) {
    edb.Insert("big", Tuple({Value::Int(i), Value::Int(i % 40)}));
  }
  for (int i = 0; i < 40; ++i) {
    edb.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Result<Program> p = Parser::Parse(
      "joined(X, Y) :- big(X, Z), edge(Z, Y).\n"
      "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "deep(X, Y) :- big(X, Z), tc(Z, Y).\n");
  ASSERT_TRUE(p.ok());

  EvalOutput expected = Evaluate(p.value(), edb, EvalOptions());
  ThreadPool pool(3);
  EvalOptions parallel;
  parallel.pool = &pool;
  EvalOutput actual = Evaluate(p.value(), edb, parallel);
  EXPECT_TRUE(expected == actual);
}

TEST(ParallelEvalTest, NaiveModeAlsoBitIdentical) {
  Rng rng(77);
  Database edb = RandomEdb(&rng, 10, 30);
  Result<Program> program = Parser::Parse(RandomProgram(&rng));
  ASSERT_TRUE(program.ok());

  EvalOptions sequential;
  sequential.semi_naive = false;
  EvalOutput expected = Evaluate(program.value(), edb, sequential);

  ThreadPool pool(3);
  EvalOptions parallel;
  parallel.semi_naive = false;
  parallel.pool = &pool;
  EvalOutput actual = Evaluate(program.value(), edb, parallel);
  EXPECT_TRUE(expected == actual);
}

/// Builds the same three-transducer chain twice and compares the
/// orchestration byte for byte: the pool parallelises dependency-query
/// evaluation but must not change scheduling, trace, stats or results.
struct ChainRun {
  std::vector<std::string> executed;
  std::vector<std::vector<std::string>> eligible;
  size_t dependency_checks = 0;
  std::vector<Tuple> c_rows;
};

ChainRun RunChain(ThreadPool* pool, SnapshotCache* cache) {
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
  options.pool = pool;
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

TEST(ParallelEvalTest, OrchestratorScanIdenticalWithPoolAndCache) {
  ChainRun sequential = RunChain(nullptr, nullptr);

  ThreadPool pool(3);
  SnapshotCache cache;
  ChainRun parallel = RunChain(&pool, &cache);

  EXPECT_EQ(sequential.executed, parallel.executed);
  EXPECT_EQ(sequential.eligible, parallel.eligible);
  EXPECT_EQ(sequential.dependency_checks, parallel.dependency_checks);
  EXPECT_EQ(sequential.c_rows, parallel.c_rows);
  // The cache did real work: repeated scans of sys_* control relations
  // and the chain's inputs hit after the first miss.
  EXPECT_GT(cache.stats().hits, 0u);
}

/// End-to-end: a full wrangling session configured with 4 threads
/// produces the same result relation, in the same row order, as the
/// default sequential session.
TEST(ParallelEvalTest, SessionResultIdenticalUnderParallelConfig) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 12;
  uopts.seed = 9;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions err;
  err.seed = 11;
  Relation rightmove = ExtractRightmove(truth, err);
  Schema target = Schema::Untyped(
      "target",
      {"type", "description", "street", "postcode", "bedrooms", "price",
       "crimerank"});

  auto run_session = [&](const WranglerConfig& config) {
    auto session = std::make_unique<WranglingSession>(config);
    EXPECT_TRUE(session->SetTargetSchema(target).ok());
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

  WranglerConfig sequential;
  auto expected = run_session(sequential);
  EXPECT_FALSE(expected.first.empty());

  WranglerConfig parallel;
  parallel.parallelism.threads = 4;
  auto actual = run_session(parallel);

  EXPECT_EQ(expected.first, actual.first);
  EXPECT_EQ(expected.second, actual.second);
}

/// Chrome-trace export of a parallel run: spans recorded concurrently on
/// pool workers land on distinct lanes (distinct trace tids), and the
/// spans of each lane nest properly — concurrent dep checks never
/// interleave on one trace row, which is what makes the Perfetto view
/// readable.
TEST(ParallelEvalTest, ChromeTraceSeparatesPoolWorkerSpans) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 60;
  uopts.num_postcodes = 12;
  uopts.seed = 9;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions err;
  err.seed = 11;
  Relation rightmove = ExtractRightmove(truth, err);

  WranglerConfig config;
  config.parallelism.threads = 3;
  WranglingSession session(config);
  ASSERT_TRUE(session
                  .SetTargetSchema(Schema::Untyped(
                      "target", {"type", "description", "street", "postcode",
                                 "bedrooms", "price", "crimerank"}))
                  .ok());
  ASSERT_TRUE(session.AddSource(rightmove).ok());
  ASSERT_TRUE(session.Run().ok());

  const obs::SpanCollector* collector = session.obs().spans();
  ASSERT_NE(collector, nullptr);
  std::vector<obs::SpanRecord> spans = collector->spans();
  ASSERT_FALSE(spans.empty());

  // Dependency checks ran on pool workers, so more than one thread
  // recorded spans.
  size_t dep_checks = 0;
  std::set<uint64_t> dep_check_lanes;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "dep_check") {
      ++dep_checks;
      dep_check_lanes.insert(s.lane);
    }
  }
  EXPECT_GT(dep_checks, 0u);
  EXPECT_GE(collector->lanes(), 2u);

  // Within one lane spans obey stack discipline: any two either nest or
  // are disjoint. Interleaving would mean two threads shared a lane.
  std::map<uint64_t, std::vector<obs::SpanRecord>> by_lane;
  for (const obs::SpanRecord& s : spans) by_lane[s.lane].push_back(s);
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
  builder.AddSpans(*collector, /*tid=*/2);
  std::string json = builder.ToJson();
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    size_t end = json.find_first_of(",}", pos);
    tids.insert(json.substr(pos, end - pos));
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(collector->lanes()));
  EXPECT_TRUE(tids.count("2") == 1);
  EXPECT_TRUE(tids.count("3") == 1);
}

}  // namespace
}  // namespace vada::datalog
