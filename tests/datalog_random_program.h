// Shared random-program generator for the datalog differential fuzz
// harness and the dataflow/optimizer property tests: seeds map
// deterministically to (EDB, program) pairs exercising every feature
// the planner and the optimizer touch — multi-way joins, constants in
// atoms, comparisons, arithmetic assignments, stratified negation and
// aggregates, over relations that may be empty.
#ifndef VADA_TESTS_DATALOG_RANDOM_PROGRAM_H_
#define VADA_TESTS_DATALOG_RANDOM_PROGRAM_H_

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"

namespace vada::datalog {

struct EvalOutput {
  std::map<std::string, std::vector<Tuple>> facts;
  EvalStats stats;

  std::map<std::string, std::vector<Tuple>> SortedFacts() const {
    std::map<std::string, std::vector<Tuple>> out = facts;
    for (auto& [pred, rows] : out) std::sort(rows.begin(), rows.end());
    return out;
  }

  /// Bit-identity: same rows in the same order, same stats.
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

inline EvalOutput Evaluate(const Program& program, const Database& edb,
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

/// Random EDB over three binary edge relations (one possibly left empty
/// while rules still reference it), a string-labelled relation, a
/// weighted relation, and unary node/src relations.
inline Database RandomEdb(Rng* rng) {
  Database db;
  int nodes = static_cast<int>(rng->UniformInt(3, 12));
  int edges = static_cast<int>(rng->UniformInt(4, 60));
  bool e2_empty = rng->Bernoulli(0.2);
  for (int e = 0; e < 3; ++e) {
    if (e == 2 && e2_empty) continue;
    std::string pred = "e" + std::to_string(e);
    for (int i = 0; i < edges; ++i) {
      db.Insert(pred, Tuple({Value::Int(rng->UniformInt(0, nodes - 1)),
                             Value::Int(rng->UniformInt(0, nodes - 1))}));
    }
  }
  for (int i = 0; i < edges / 2; ++i) {
    db.Insert("lab",
              Tuple({Value::Int(rng->UniformInt(0, nodes - 1)),
                     Value::String("s" + std::to_string(rng->UniformInt(0, 3)))}));
    db.Insert("w", Tuple({Value::Int(rng->UniformInt(0, nodes - 1)),
                          Value::Int(rng->UniformInt(0, nodes - 1)),
                          Value::Int(rng->UniformInt(0, 9))}));
  }
  for (int i = 0; i < nodes; ++i) {
    if (rng->Bernoulli(0.3)) db.Insert("src", Tuple({Value::Int(i)}));
    db.Insert("node", Tuple({Value::Int(i)}));
  }
  return db;
}

/// Random program exercising every feature the planner touches: multi-way
/// joins (cross products included), constants in atoms, comparisons,
/// arithmetic assignments, stratified negation and aggregates.
inline std::string RandomProgram(Rng* rng) {
  std::ostringstream p;
  p << "p0(X, Y) :- e0(X, Y).\n";
  int rules = static_cast<int>(rng->UniformInt(4, 9));
  for (int r = 0; r < rules; ++r) {
    int head = static_cast<int>(rng->UniformInt(0, 3));
    switch (rng->UniformInt(0, 6)) {
      case 0:  // copy, sometimes from the (possibly empty) e2
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 2)
          << "(X, Y).\n";
        break;
      case 1:  // linear recursion
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 2)
          << "(X, Z), p" << rng->UniformInt(0, 3) << "(Z, Y).\n";
        break;
      case 2:  // nonlinear recursion
        p << "p" << head << "(X, Y) :- p" << rng->UniformInt(0, 3)
          << "(X, Z), p" << rng->UniformInt(0, 3) << "(Z, Y).\n";
        break;
      case 3:  // constant in an atom position
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 1) << "(X, Y), "
          << "e" << rng->UniformInt(0, 1) << "(" << rng->UniformInt(0, 5)
          << ", X).\n";
        break;
      case 4:  // comparison filter over a two-atom join
        p << "p" << head << "(X, Y) :- e" << rng->UniformInt(0, 1)
          << "(X, Z), e" << rng->UniformInt(0, 1) << "(Z, Y), X "
          << (rng->Bernoulli(0.5) ? "<" : "!=") << " Y.\n";
        break;
      case 5:  // arithmetic assignment
        p << "p" << head << "(X, S) :- w(X, Y, C), S = C + "
          << rng->UniformInt(1, 3) << ".\n";
        break;
      default:  // cross product joined back through a label
        p << "p" << head << "(X, Y) :- node(X), node(Y), lab(X, \"s"
          << rng->UniformInt(0, 3) << "\").\n";
        break;
    }
  }
  // Fixed stratified tail: negation over reachability and aggregates.
  p << "reach(X) :- src(X).\n"
       "reach(Y) :- reach(X), e0(X, Y).\n"
       "unreach(X) :- node(X), not reach(X).\n"
       "fanout(X, count<Y>) :- p0(X, Y).\n"
       "wsum(X, sum<C>) :- w(X, Y, C).\n"
       "span(min<X>, max<Y>) :- p1(X, Y).\n";
  return p.str();
}

/// Every predicate RandomProgram derives — the goal set the optimizer
/// differential sweeps (each one exercises a different rewrite shape:
/// plain/recursive IDB, negation, aggregates).
inline std::vector<std::string> RandomProgramGoals() {
  return {"p0", "p1",     "p2",     "p3",   "reach",
          "unreach", "fanout", "wsum", "span"};
}

}  // namespace vada::datalog

#endif  // VADA_TESTS_DATALOG_RANDOM_PROGRAM_H_
