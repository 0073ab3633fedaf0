// Experiment E9 — reasoner ablation: semi-naive vs naive evaluation on
// recursive workloads, plus parser and join micro-benchmarks. This backs
// the architecture's reliance on a Datalog reasoner for orchestration
// and mappings: dependency checks and mapping execution must be cheap.
//
// Expected shape: semi-naive dominates naive increasingly with input
// size (naive re-derives the full closure each round).
#include <benchmark/benchmark.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"

namespace vada::datalog {
namespace {

Program TcProgram() {
  return Parser::Parse(
             "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).")
      .value();
}

Database ChainDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  return db;
}

Database GridDb(int side) {
  Database db;
  auto id = [side](int r, int c) { return Value::Int(r * side + c); };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (c + 1 < side) db.Insert("edge", Tuple({id(r, c), id(r, c + 1)}));
      if (r + 1 < side) db.Insert("edge", Tuple({id(r, c), id(r + 1, c)}));
    }
  }
  return db;
}

void BM_TransitiveClosureChain(benchmark::State& state) {
  bool semi_naive = state.range(1) == 1;
  int n = static_cast<int>(state.range(0));
  Program program = TcProgram();
  for (auto _ : state) {
    Database db = ChainDb(n);
    EvalOptions opts;
    opts.semi_naive = semi_naive;
    Evaluator eval(program, opts);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("tc"));
  }
  state.SetLabel(semi_naive ? "semi_naive" : "naive");
  state.counters["facts"] = static_cast<double>(n) * (n + 1) / 2;
}
BENCHMARK(BM_TransitiveClosureChain)
    ->Args({64, 1})
    ->Args({64, 0})
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({256, 1})
    ->Args({256, 0})
    ->Unit(benchmark::kMillisecond);

void BM_TransitiveClosureGrid(benchmark::State& state) {
  bool semi_naive = state.range(1) == 1;
  int side = static_cast<int>(state.range(0));
  Program program = TcProgram();
  for (auto _ : state) {
    Database db = GridDb(side);
    EvalOptions opts;
    opts.semi_naive = semi_naive;
    Evaluator eval(program, opts);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("tc"));
  }
  state.SetLabel(semi_naive ? "semi_naive" : "naive");
}
BENCHMARK(BM_TransitiveClosureGrid)
    ->Args({8, 1})
    ->Args({8, 0})
    ->Args({12, 1})
    ->Args({12, 0})
    ->Unit(benchmark::kMillisecond);

/// Join-planner ablation on a triangle query: full-scan oracle vs
/// composite-index + reordered evaluation (DESIGN.md §5f). The wider
/// comparison (work counters, scenario run) lives in bench_join_planner.
void BM_JoinPlannerTriangles(benchmark::State& state) {
  bool planner_on = state.range(1) == 1;
  int edges = static_cast<int>(state.range(0));
  Program program =
      Parser::Parse("tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).")
          .value();
  Database edb;
  uint64_t s = 42;
  for (int i = 0; i < edges; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    int64_t a = static_cast<int64_t>((s >> 33) % 60);
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    int64_t b = static_cast<int64_t>((s >> 33) % 60);
    edb.Insert("edge", Tuple({Value::Int(a), Value::Int(b)}));
  }
  for (auto _ : state) {
    Database db = edb;
    EvalOptions opts;
    if (!planner_on) {
      opts.planner = PlannerOptions{.indexes = false, .reorder = false};
    }
    Evaluator eval(program, opts);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("tri"));
  }
  state.SetLabel(planner_on ? "indexed+reordered" : "full-scan oracle");
}
BENCHMARK(BM_JoinPlannerTriangles)
    ->Args({200, 1})
    ->Args({200, 0})
    ->Args({400, 1})
    ->Args({400, 0})
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedNegation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Program program = Parser::Parse(
                        "reach(X) :- src(X).\n"
                        "reach(Y) :- reach(X), edge(X, Y).\n"
                        "unreach(X) :- node(X), not reach(X).\n")
                        .value();
  for (auto _ : state) {
    Database db = ChainDb(n);
    db.Insert("src", Tuple({Value::Int(0)}));
    for (int i = 0; i <= n; ++i) db.Insert("node", Tuple({Value::Int(i)}));
    Evaluator eval(program);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("unreach"));
  }
}
BENCHMARK(BM_StratifiedNegation)->Arg(128)->Arg(512)->Unit(
    benchmark::kMillisecond);

void BM_Aggregation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Program program =
      Parser::Parse("stats(G, count<V>, sum<V>) :- m(G, V).").value();
  for (auto _ : state) {
    Database db;
    for (int i = 0; i < n; ++i) {
      db.Insert("m", Tuple({Value::Int(i % 50), Value::Int(i)}));
    }
    Evaluator eval(program);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("stats"));
  }
}
BENCHMARK(BM_Aggregation)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void BM_Parser(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < 100; ++i) {
    source += "p" + std::to_string(i) + "(X, Y) :- q(X, Z), r(Z, Y), X < Y, "
              "not s(X), W = X + 1.\n";
  }
  for (auto _ : state) {
    Result<Program> p = Parser::Parse(source);
    if (!p.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(p.value().rules.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_Parser);

void BM_IndexedJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Program program =
      Parser::Parse("j(A, C) :- r(A, B), s(B, C).").value();
  for (auto _ : state) {
    Database db;
    for (int i = 0; i < n; ++i) {
      db.Insert("r", Tuple({Value::Int(i), Value::Int(i % 100)}));
      db.Insert("s", Tuple({Value::Int(i % 100), Value::Int(i)}));
    }
    Evaluator eval(program);
    if (!eval.Prepare().ok()) state.SkipWithError("prepare failed");
    if (!eval.Run(&db).ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(db.FactCount("j"));
  }
}
BENCHMARK(BM_IndexedJoin)->Arg(1000)->Arg(5000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace vada::datalog

BENCHMARK_MAIN();
