// Piece keys (DESIGN.md §5p): a body runs only the pieces whose inputs
// moved and reassembles the others from the KB or its piece cache. These
// tests pin how many pieces a source refresh runs at the pay-as-you-go
// workload's scale, that an idle Run and a rolled-back step behave as
// documented, that a repair whose CFDs are gone does not outlive them,
// and that a session whose piece caches are dropped before every Run ends
// every event on the same knowledge base, result and trace.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/schema.h"
#include "transducer/fault_injection.h"
#include "wrangler/session.h"
#include "kb_digest_test_util.h"

namespace vada {
namespace {

Schema TargetSchema() {
  return Schema::Untyped("property", {"type", "description", "street",
                                      "postcode", "bedrooms", "price",
                                      "crimerank"});
}

/// The pay-as-you-go workload's inputs: two portals with asymmetric
/// extraction quality, the deprivation source, the address reference
/// data, and a later crawl of Rightmove that source events draw
/// listings from.
struct Inputs {
  GroundTruth truth;
  Relation rightmove{Schema()};
  Relation onthemarket{Schema()};
  Relation deprivation{Schema()};
  Relation address{Schema()};
  Relation later{Schema()};

  Inputs(uint64_t seed, size_t properties, size_t postcodes) {
    PropertyUniverseOptions uopts;
    uopts.num_properties = properties;
    uopts.num_postcodes = postcodes;
    uopts.seed = seed;
    truth = GeneratePropertyUniverse(uopts);
    ExtractionErrorOptions rm;
    rm.seed = seed * 31 + 1;
    rm.coverage = 0.75;
    rm.bedrooms_area_rate = 0.18;
    rightmove = ExtractRightmove(truth, rm);
    ExtractionErrorOptions otm;
    otm.seed = seed * 31 + 2;
    otm.coverage = 0.6;
    otm.bedrooms_area_rate = 0.04;
    onthemarket = ExtractOnthemarket(truth, otm);
    deprivation = GenerateDeprivation(truth);
    address = GenerateAddressReference(truth);
    ExtractionErrorOptions later_opts;
    later_opts.seed = seed * 31 + 5;
    later_opts.coverage = 1.0;
    later_opts.bedrooms_area_rate = 0.18;
    later = ExtractRightmove(truth, later_opts);
  }

  /// Listings [begin, end) of the later crawl.
  Relation Listings(size_t begin, size_t end) const {
    Relation batch(later.schema());
    for (size_t i = begin; i < end && i < later.size(); ++i) {
      EXPECT_TRUE(batch.InsertUnchecked(later.rows()[i]).ok());
    }
    return batch;
  }
};

Status AddAddress(WranglingSession* session, const Relation& address) {
  return session->AddDataContext(
      address, RelationRole::kReference,
      {{"street", "street"}, {"postcode", "postcode"}});
}

Status Bootstrap(WranglingSession* session, const Inputs& in) {
  VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
  VADA_RETURN_IF_ERROR(session->AddSource(in.rightmove));
  VADA_RETURN_IF_ERROR(session->AddSource(in.onthemarket));
  VADA_RETURN_IF_ERROR(session->AddSource(in.deprivation));
  VADA_RETURN_IF_ERROR(AddAddress(session, in.address));
  return session->Run();
}

/// Pieces run and reused per transducer since `before`.
std::map<std::string, PieceCounts> Delta(
    const std::map<std::string, PieceCounts>& before,
    const WranglingSession& session) {
  std::map<std::string, PieceCounts> out;
  for (const auto& [name, now] : session.state().piece_counts) {
    auto it = before.find(name);
    PieceCounts then = it == before.end() ? PieceCounts() : it->second;
    if (now.run != then.run || now.reused != then.reused) {
      out[name] = {now.run - then.run, now.reused - then.reused};
    }
  }
  return out;
}

/// Transducers that stepped since trace position `from`.
std::vector<std::string> Stepped(const WranglingSession& session,
                                 size_t from) {
  std::vector<std::string> out;
  const std::vector<TraceEvent>& events = session.trace().events();
  for (size_t i = from; i < events.size(); ++i) {
    out.push_back(events[i].transducer);
  }
  return out;
}

std::vector<Tuple> SortedResult(const WranglingSession& session) {
  const Relation* result = session.result();
  return result == nullptr ? std::vector<Tuple>{} : result->SortedRows();
}

// perfbench's payg_refresh scale (seed 7): the first source event adds 3
// later-crawl Rightmove listings. Only the two mappings over rightmove
// change, and only the pieces that read what moved run again.
TEST(PieceKeyTest, SourceBatchRunsOnlyThePiecesWhoseInputsMoved) {
  Inputs in(7, 300, 40);
  WranglingSession session;
  ASSERT_TRUE(Bootstrap(&session, in).ok());
  // A cold bootstrap reuses nothing but dedup blocks.
  for (const auto& [name, counts] : session.state().piece_counts) {
    if (name != "fusion") EXPECT_EQ(counts.reused, 0u) << name;
  }

  const std::map<std::string, PieceCounts> before =
      session.state().piece_counts;
  const size_t steps = session.trace().size();
  ASSERT_TRUE(session.AddSource(in.Listings(0, 3)).ok());
  ASSERT_TRUE(session.Run().ok());
  std::map<std::string, PieceCounts> delta = Delta(before, session);
  EXPECT_EQ(delta["mapping_execution"].run, 2u);
  EXPECT_EQ(delta["mapping_execution"].reused, 3u);
  EXPECT_EQ(delta["mapping_repair"].run, 2u);
  EXPECT_EQ(delta["mapping_repair"].reused, 3u);
  EXPECT_EQ(delta["quality_metrics"].run, 2u);
  EXPECT_EQ(delta["quality_metrics"].reused, 3u);
  EXPECT_EQ(delta["source_quality"].run, 1u);
  EXPECT_EQ(delta["source_quality"].reused, 2u);
  EXPECT_EQ(delta["instance_matching"].run, 1u);
  EXPECT_EQ(delta["instance_matching"].reused, 2u);
  EXPECT_GE(delta["fusion"].run, 1u);
  EXPECT_LE(delta["fusion"].run, 3u);
  EXPECT_GT(delta["fusion"].reused, 30u);
  std::vector<std::string> stepped = Stepped(session, steps);
  EXPECT_EQ(std::count(stepped.begin(), stepped.end(), "schema_matching"), 0);

  // Nothing new: no step, no piece.
  const std::map<std::string, PieceCounts> idle =
      session.state().piece_counts;
  ASSERT_TRUE(session.Run().ok());
  EXPECT_TRUE(Delta(idle, session).empty());
  EXPECT_EQ(session.trace().size(), steps + stepped.size());
}

// A step whose writes are rolled back moves the version epoch, so every
// piece keyed on versions misses once. Dedup blocks compare rows, not
// versions, and are reused.
TEST(PieceKeyTest, RolledBackStepMakesEveryKeyedPieceMissOnce) {
  Inputs in(7, 120, 20);
  WranglerConfig config;
  config.fault_tolerance.sleep_ms = [](double) {};
  WranglingSession session(config);
  // Its first attempt writes and fails; the retry succeeds and writes
  // nothing.
  int attempts = 0;
  ASSERT_TRUE(session
                  .AddTransducer(std::make_unique<FunctionTransducer>(
                      "saboteur", "feedback",
                      "ready() :- sys_relation_nonempty(\"trigger\").",
                      [&attempts](KnowledgeBase* kb) -> Status {
                        if (++attempts > 1) return Status::OK();
                        VADA_RETURN_IF_ERROR(kb->Assert(
                            "trigger", {Value::String("written")}));
                        return Status::Internal("injected");
                      }))
                  .ok());
  ASSERT_TRUE(Bootstrap(&session, in).ok());
  const std::map<std::string, PieceCounts> before =
      session.state().piece_counts;
  const uint64_t epoch = session.kb().version_epoch();
  ASSERT_TRUE(
      session.kb().CreateRelation(Schema::Untyped("trigger", {"x"})).ok());
  ASSERT_TRUE(session.kb().Assert("trigger", {Value::String("go")}).ok());
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(attempts, 2);
  EXPECT_GT(session.kb().version_epoch(), epoch);
  std::map<std::string, PieceCounts> delta = Delta(before, session);
  for (const char* name :
       {"mapping_execution", "mapping_repair", "quality_metrics",
        "source_quality", "instance_matching"}) {
    EXPECT_GT(delta[name].run, 0u) << name;
    EXPECT_EQ(delta[name].reused, 0u) << name;
  }
  EXPECT_EQ(delta["fusion"].run, 0u);

  const std::map<std::string, PieceCounts> idle =
      session.state().piece_counts;
  ASSERT_TRUE(session.Run().ok());
  EXPECT_TRUE(Delta(idle, session).empty());
}

// Listing every address street again under another postcode leaves no
// CFD. The repairs learned from the old CFD must go with it: a session
// refreshed through that and 30 later listings ends on the result of a
// fresh session over the same inputs.
TEST(PieceKeyTest, RepairsGoWhenTheirCfdsGo) {
  Inputs in(7, 300, 40);
  const std::vector<Tuple> streets = in.address.rows();
  std::vector<Value> postcodes;
  for (const Tuple& row : streets) postcodes.push_back(row.at(2));
  std::sort(postcodes.begin(), postcodes.end());
  postcodes.erase(std::unique(postcodes.begin(), postcodes.end()),
                  postcodes.end());
  ASSERT_GT(postcodes.size(), 1u);
  Relation moved(in.address.schema());
  for (const Tuple& row : streets) {
    size_t at = std::lower_bound(postcodes.begin(), postcodes.end(),
                                 row.at(2)) -
                postcodes.begin();
    ASSERT_TRUE(moved
                    .InsertUnchecked(Tuple(
                        {row.at(0), row.at(1),
                         postcodes[(at + 1) % postcodes.size()]}))
                    .ok());
  }
  const Relation listings = in.Listings(0, 30);

  WranglingSession refreshed;
  ASSERT_TRUE(Bootstrap(&refreshed, in).ok());
  const Relation* cfd = refreshed.kb().FindRelation("cfd");
  ASSERT_NE(cfd, nullptr);
  ASSERT_FALSE(cfd->empty());
  ASSERT_NE(refreshed.kb().FindRelation("repaired_m2_rightmove"), nullptr);
  ASSERT_TRUE(AddAddress(&refreshed, moved).ok());
  ASSERT_TRUE(refreshed.Run().ok());
  EXPECT_TRUE(refreshed.kb().FindRelation("cfd")->empty());
  EXPECT_EQ(refreshed.kb().FindRelation("repaired_m2_rightmove"), nullptr);
  ASSERT_TRUE(refreshed.AddSource(listings).ok());
  ASSERT_TRUE(refreshed.Run().ok());

  WranglingSession fresh;
  ASSERT_TRUE(fresh.SetTargetSchema(TargetSchema()).ok());
  ASSERT_TRUE(fresh.AddSource(in.rightmove).ok());
  ASSERT_TRUE(fresh.AddSource(listings).ok());
  ASSERT_TRUE(fresh.AddSource(in.onthemarket).ok());
  ASSERT_TRUE(fresh.AddSource(in.deprivation).ok());
  ASSERT_TRUE(AddAddress(&fresh, in.address).ok());
  ASSERT_TRUE(AddAddress(&fresh, moved).ok());
  ASSERT_TRUE(fresh.Run().ok());
  ASSERT_FALSE(SortedResult(fresh).empty());
  EXPECT_EQ(SortedResult(refreshed), SortedResult(fresh));
}

/// The pay-as-you-go event stream of perfbench's payg_refresh at a small
/// scale, replayed into a session and into a twin whose piece caches are
/// dropped before every Run: after every event both hold the same
/// knowledge base and result, and took the same steps.
void ReplayTwins(uint64_t seed, bool faults) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (faults ? " with faults" : ""));
  Inputs in(seed, 80, 12);
  auto make_config = [&](const FaultInjector& injector) {
    WranglerConfig config;
    if (faults) {
      config.fault_tolerance.sleep_ms = [](double) {};
      config.transducer_decorator = injector.Decorator();
    }
    return config;
  };
  FaultInjector::Options fopt;
  fopt.seed = seed * 13 + 1;
  FaultInjector injector(fopt);
  FaultInjector twin_injector(fopt);
  WranglingSession session(make_config(injector));
  WranglingSession twin(make_config(twin_injector));
  ASSERT_TRUE(Bootstrap(&session, in).ok());
  twin.DropPieceCachesForTesting();
  ASSERT_TRUE(Bootstrap(&twin, in).ok());

  auto steps = [](const WranglingSession& s) {
    std::vector<std::string> out;
    for (const TraceEvent& e : s.trace().events()) {
      out.push_back(e.transducer + " v" + std::to_string(e.version_before) +
                    "->" + std::to_string(e.version_after) +
                    (e.rolled_back ? " rolled back" : ""));
    }
    return out;
  };
  Rng rng(seed * 7919 + 13);
  size_t next_listing = 0;
  bool crime_first = false;
  for (size_t i = 0; i < 30; ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    std::function<Status(WranglingSession*)> input;
    if (i % 15 == 14) {
      crime_first = !crime_first;
      UserContext uc;
      ASSERT_TRUE(uc.AddStatement("completeness", "crimerank",
                                  crime_first ? "very strongly" : "strongly",
                                  "completeness", "bedrooms")
                      .ok());
      input = [uc](WranglingSession* s) { return s->SetUserContext(uc); };
    } else if (i % 3 == 2) {
      Relation batch = in.Listings(next_listing, next_listing + 3);
      next_listing += 3;
      input = [batch](WranglingSession* s) { return s->AddSource(batch); };
    } else {
      std::vector<Tuple> rows = SortedResult(session);
      ASSERT_FALSE(rows.empty());
      const Tuple row = rows[rng.Index(rows.size())];
      size_t bed = *session.result()->schema().AttributeIndex("bedrooms");
      std::optional<double> v = row.at(bed).AsDouble();
      FeedbackItem item{row, "bedrooms",
                        v.has_value() && *v > 8.0
                            ? FeedbackPolarity::kIncorrect
                            : FeedbackPolarity::kCorrect};
      input = [item](WranglingSession* s) { return s->AddFeedback(item); };
    }
    ASSERT_TRUE(input(&session).ok());
    ASSERT_TRUE(session.Run().ok());
    ASSERT_TRUE(input(&twin).ok());
    twin.DropPieceCachesForTesting();
    ASSERT_TRUE(twin.Run().ok());
    ASSERT_EQ(KbDigest(session.kb()), KbDigest(twin.kb()));
    ASSERT_EQ(session.result()->rows(), twin.result()->rows());
    ASSERT_EQ(steps(session), steps(twin));
  }
  // The session did reuse pieces the twin recomputed.
  uint64_t reused = 0;
  for (const auto& [name, counts] : session.state().piece_counts) {
    reused += name == "fusion" ? 0 : counts.reused;
  }
  EXPECT_GT(reused, 0u);
}

TEST(PieceKeyTest, DroppedCachesChangeNothingAcrossThePaygStream) {
  for (uint64_t seed : {3, 7, 11}) {
    ReplayTwins(seed, /*faults=*/false);
    ReplayTwins(seed, /*faults=*/true);
  }
}

}  // namespace
}  // namespace vada
