#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "transducer/fault_injection.h"
#include "wrangler/session.h"
#include "fixpoint_auditor.h"

namespace vada {
namespace {

/// Soak test of the fault-tolerant orchestrator over the paper's
/// real-estate scenario: for many seeded fault schedules, a wrangle under
/// injection must converge to *exactly* the fault-free result. This holds
/// because every injected fault is transient (bounded failure budget),
/// rollback restores the KB byte-identically after each failed attempt,
/// and the pipeline itself is deterministic — so the sequence of
/// *successful* executions is the same as in the fault-free run.

Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

class FaultSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyUniverseOptions uopts;
    uopts.num_properties = 50;
    uopts.num_postcodes = 10;
    uopts.seed = 5;
    truth_ = GeneratePropertyUniverse(uopts);
    ExtractionErrorOptions rm;
    rm.seed = 101;
    rightmove_ = ExtractRightmove(truth_, rm);
    ExtractionErrorOptions otm;
    otm.seed = 202;
    otm.coverage = 0.6;
    onthemarket_ = ExtractOnthemarket(truth_, otm);
    deprivation_ = GenerateDeprivation(truth_);
    address_ = GenerateAddressReference(truth_);
  }

  Status Bootstrap(WranglingSession* session) {
    VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
    VADA_RETURN_IF_ERROR(session->AddSource(rightmove_));
    VADA_RETURN_IF_ERROR(session->AddSource(onthemarket_));
    VADA_RETURN_IF_ERROR(session->AddSource(deprivation_));
    VADA_RETURN_IF_ERROR(session->AddDataContext(
        address_, RelationRole::kReference,
        {{"street", "street"}, {"postcode", "postcode"}}));
    return Status::OK();
  }

  /// Fault-tolerance policy with a no-op sleeper (keeps the soak fast)
  /// that still records every backoff request.
  FailurePolicy SoakPolicy(std::vector<double>* backoffs) {
    FailurePolicy fp;
    // Enough attempts to outlast any injected failure budget (<= 2), so
    // every step eventually succeeds and no transducer is quarantined —
    // the precondition for exact convergence.
    fp.max_attempts = 4;
    fp.sleep_ms = [backoffs](double ms) { backoffs->push_back(ms); };
    return fp;
  }

  GroundTruth truth_;
  Relation rightmove_{Schema()};
  Relation onthemarket_{Schema()};
  Relation deprivation_{Schema()};
  Relation address_{Schema()};
};

TEST_F(FaultSoakTest, SeededFaultSchedulesConvergeToFaultFreeResult) {
  // Fault-free baseline.
  FixpointAuditor baseline_auditor;
  WranglerConfig baseline_config;
  baseline_config.transducer_decorator = baseline_auditor.Decorator();
  WranglingSession baseline(baseline_config);
  ASSERT_TRUE(Bootstrap(&baseline).ok());
  OrchestrationStats baseline_stats;
  ASSERT_TRUE(baseline.Run(&baseline_stats).ok());
  EXPECT_EQ(baseline_auditor.Offenders(
                &baseline.kb(), [&] { baseline.DropPieceCachesForTesting(); }),
            std::vector<std::string>{});
  ASSERT_NE(baseline.result(), nullptr);
  const std::vector<Tuple> expected_rows = baseline.result()->rows();
  ASSERT_FALSE(expected_rows.empty());

  size_t total_retries = 0;
  size_t total_rollbacks = 0;
  size_t schedules_with_faults = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    FaultInjector::Options fopt;
    fopt.seed = seed;
    fopt.fault_rate = 0.5;
    fopt.max_failures = 2;
    FaultInjector injector(fopt);

    std::vector<double> backoffs;
    FixpointAuditor auditor;
    WranglerConfig config;
    config.fault_tolerance = SoakPolicy(&backoffs);
    config.transducer_decorator = auditor.Decorator(injector.Decorator());
    WranglingSession session(config);
    ASSERT_TRUE(Bootstrap(&session).ok());
    OrchestrationStats stats;
    Status s = session.Run(&stats);
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString() << "\n"
                        << session.trace().ToString();
    EXPECT_EQ(auditor.Offenders(&session.kb(),
                                [&] { session.DropPieceCachesForTesting(); }),
              std::vector<std::string>{})
        << "seed " << seed;
    // Exact convergence: same rows, same order, despite the faults.
    ASSERT_NE(session.result(), nullptr) << "seed " << seed;
    EXPECT_EQ(session.result()->rows(), expected_rows) << "seed " << seed;
    // Nothing should end up permanently benched by transient faults.
    EXPECT_TRUE(session.orchestrator().QuarantinedTransducers().empty())
        << "seed " << seed;
    total_retries += stats.retries;
    total_rollbacks += stats.rollbacks;
    if (stats.retries > 0) ++schedules_with_faults;
    // Injected backoffs obey the policy's exponential schedule: each
    // sleep is either the initial value or a bounded multiple of it.
    for (double ms : backoffs) {
      EXPECT_GE(ms, 1.0);
      EXPECT_LE(ms, 50.0);
    }
  }
  // The harness must actually have exercised the failure paths: with
  // fault_rate 0.5 over 13 transducers and 25 seeds, a silent all-green
  // run means the injection wiring is broken.
  EXPECT_GT(schedules_with_faults, 10u);
  EXPECT_GT(total_retries, 25u);
  EXPECT_EQ(total_rollbacks, total_retries)
      << "every retried attempt must have been rolled back first";
}

TEST_F(FaultSoakTest, PermanentStandardTransducerFailureDegradesGracefully) {
  // Break one standard transducer off the critical path permanently:
  // cfd_learning feeds mapping_repair, but the main chain to
  // wrangled_result survives without it.
  WranglerConfig config;
  config.fault_tolerance.max_attempts = 2;
  config.fault_tolerance.quarantine_after = 1;
  config.fault_tolerance.quarantine_max_probes = 1;
  config.fault_tolerance.sleep_ms = [](double) {};
  FixpointAuditor auditor;
  config.transducer_decorator = auditor.Decorator(
      [](std::unique_ptr<Transducer> t) -> std::unique_ptr<Transducer> {
        if (t->name() != "cfd_learning") return t;
        FaultSpec spec;
        spec.kind = FaultKind::kFailFirstN;
        spec.count = 1000000;  // effectively permanent
        return WrapWithFault(std::move(t), spec);
      });
  WranglingSession session(config);
  ASSERT_TRUE(Bootstrap(&session).ok());
  OrchestrationStats stats;
  Status s = session.Run(&stats);
  // Graceful degradation: the run completes…
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << session.trace().ToString();
  // …and every transducer that did run is at its fixpoint; re-running the
  // unwrapped cfd_learning publishes the CFDs its quarantine held back.
  EXPECT_EQ(auditor.Offenders(&session.kb(),
                              [&] { session.DropPieceCachesForTesting(); }),
            std::vector<std::string>{"cfd_learning"});
  // …the result is still produced…
  ASSERT_NE(session.result(), nullptr);
  EXPECT_GT(session.result()->size(), 0u);
  // …the broken transducer is quarantined, with failure facts in the KB.
  EXPECT_EQ(session.orchestrator().QuarantinedTransducers(),
            std::vector<std::string>{"cfd_learning"});
  EXPECT_GE(stats.failures, 1u);
  const Relation* failures =
      session.kb().FindRelation("sys_transducer_failure");
  ASSERT_NE(failures, nullptr);
  EXPECT_FALSE(failures->empty());
  const Relation* quarantined =
      session.kb().FindRelation("sys_transducer_quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_FALSE(quarantined->empty());
}

}  // namespace
}  // namespace vada
