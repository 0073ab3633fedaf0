// Experiment E11 — CFD learning and repair ablation (§2.3, Table 1 "CFD
// Learning | Data Examples"): measures learning cost against reference
// size and repair effectiveness against the extraction error rate.
//
// Expected shape: repairs recover most corrupted postcodes whenever the
// reference data pins street -> postcode; repair precision stays high
// because repairs copy evidence values, and effectiveness degrades only
// when corruption also breaks the lhs (street) values.
// Exits non-zero when a repair fails or a shape check misses: precision
// 1.0 and at least 0.99 of the rows correct after repair, at every rate.
#include "bench/bench_util.h"
#include "common/rng.h"
#include "quality/cfd.h"

namespace {

using namespace vada;

/// Corrupts the postcode of a fraction of rows.
Relation Corrupt(const Relation& clean, double error_rate, uint64_t seed,
                 size_t* corrupted) {
  Rng rng(seed);
  size_t pc = *clean.schema().AttributeIndex("postcode");
  Relation out(clean.schema());
  *corrupted = 0;
  for (const Tuple& row : clean.rows()) {
    Tuple copy = row;
    if (!copy.at(pc).is_null() && rng.Bernoulli(error_rate)) {
      std::string v = copy.at(pc).ToString();
      v[rng.Index(v.size())] = static_cast<char>('A' + rng.UniformInt(0, 25));
      copy[pc] = Value::String(v);
      ++*corrupted;
    }
    out.InsertUnchecked(std::move(copy));
  }
  return out;
}

}  // namespace

int main() {
  using namespace vada::bench;

  std::printf("E11: CFD learning cost and repair effectiveness\n\n");

  // --- Learning cost vs reference size. ---
  std::printf("learning cost (street/city/postcode reference):\n");
  Table learn_table({"reference rows", "cfds learned", "ms"});
  for (size_t properties : {100, 400, 1600}) {
    Scenario sc = MakeScenario(900 + properties, properties,
                               std::max<size_t>(10, properties / 8));
    CfdLearnerOptions opts;
    opts.min_support_count = 3;
    CfdLearner learner(opts);
    std::vector<Cfd> cfds;
    double ms = TimeMs([&] { cfds = learner.Learn(sc.address); });
    learn_table.AddRow({std::to_string(sc.address.size()),
                        std::to_string(cfds.size()), Fmt(ms, 2)});
  }
  learn_table.Print();

  // --- Repair effectiveness vs error rate. ---
  std::printf("\nrepair effectiveness (street -> postcode violations):\n");
  Table repair_table({"error rate", "corrupted", "repaired", "correct after",
                      "repair precision"});
  Scenario sc = MakeScenario(1234, 600, 60);
  // The "dirty result": the truth's (street, postcode) pairs, corrupted.
  Relation clean = sc.truth.properties
                       .Project({"street", "city", "postcode"}, "result")
                       .value();
  CfdLearnerOptions lopts;
  lopts.min_support_count = 3;
  // One checker, compiled once from the reference, repairs every rate.
  CfdChecker checker(CfdLearner(lopts).Learn(sc.address), &sc.address);
  size_t failures = 0;
  bool precise = true;
  bool correct_after = true;
  for (double rate : {0.05, 0.1, 0.2, 0.4}) {
    size_t corrupted = 0;
    Relation dirty = Corrupt(clean, rate, 5000 + static_cast<uint64_t>(
                                                    rate * 100),
                             &corrupted);
    Relation repaired = dirty;
    Result<size_t> repairs = checker.Repair(&repaired);
    if (!repairs.ok()) {
      std::fprintf(stderr, "rate %.2f: repair failed: %s\n", rate,
                   repairs.status().ToString().c_str());
      ++failures;
      continue;
    }
    // Count rows whose postcode matches the clean original again. Rows
    // are positionally comparable because Corrupt preserves order.
    size_t pc = *clean.schema().AttributeIndex("postcode");
    size_t correct = 0;
    size_t repaired_right = 0;
    size_t repaired_cells = 0;
    for (size_t r = 0; r < clean.size(); ++r) {
      bool was_wrong = !(dirty.rows()[r].at(pc) == clean.rows()[r].at(pc));
      bool now_right = repaired.rows()[r].at(pc) == clean.rows()[r].at(pc);
      if (now_right) ++correct;
      if (was_wrong && !(repaired.rows()[r].at(pc) == dirty.rows()[r].at(pc))) {
        ++repaired_cells;
        if (now_right) ++repaired_right;
      }
    }
    const double correct_rate = static_cast<double>(correct) / clean.size();
    // A rate with no repair at all misses the precision check too.
    if (repaired_cells == 0 || repaired_right != repaired_cells) {
      precise = false;
    }
    if (correct_rate < 0.99) correct_after = false;
    repair_table.AddRow(
        {Fmt(rate, 2), std::to_string(corrupted), std::to_string(*&repairs.value()),
         Fmt(correct_rate),
         repaired_cells == 0
             ? "n/a"
             : Fmt(static_cast<double>(repaired_right) / repaired_cells)});
  }
  repair_table.Print();
  std::printf(
      "\nexpected shape: repair precision ~1.0 at every error rate (the\n"
      "reference pins the expected value); post-repair correctness stays\n"
      "near 1.0 and degrades gently as corruption grows.\n");
  std::printf(
      "\nshape checks:\n"
      "  repair precision 1.0 at every error rate: %s\n"
      "  correct after >= 0.99 at every error rate: %s\n"
      "  failed repairs:                            %zu\n",
      precise ? "OK" : "MISS", correct_after ? "OK" : "MISS", failures);
  return precise && correct_after && failures == 0 ? 0 : 1;
}
