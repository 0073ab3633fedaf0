// Drift guard between the runtime metric inventory and the documented
// one (DESIGN.md §5b): every metric family a full-featured wrangle
// registers must appear in the doc, and every `vada_*` family the doc
// names must actually be registered at runtime. Catching both directions
// keeps §5b the authoritative dashboard-building reference.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/fs_util.h"
#include "obs/metrics.h"
#include "transducer/fault_injection.h"
#include "wrangler/session.h"

namespace vada {
namespace {

// Blocking GET against 127.0.0.1:`port`, response body discarded — only
// the side effect matters (the scrape registers the server's counter).
void Touch(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: l\r\n"
                        "Connection: close\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
}

Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

Status Bootstrap(WranglingSession* session) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 40;
  uopts.num_postcodes = 8;
  uopts.seed = 7;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm;
  rm.seed = 301;
  ExtractionErrorOptions otm;
  otm.seed = 302;
  otm.coverage = 0.6;
  VADA_RETURN_IF_ERROR(session->SetTargetSchema(TargetSchema()));
  VADA_RETURN_IF_ERROR(session->AddSource(ExtractRightmove(truth, rm)));
  VADA_RETURN_IF_ERROR(session->AddSource(ExtractOnthemarket(truth, otm)));
  VADA_RETURN_IF_ERROR(session->AddSource(GenerateDeprivation(truth)));
  return session->AddDataContext(GenerateAddressReference(truth),
                                 RelationRole::kReference,
                                 {{"street", "street"},
                                  {"postcode", "postcode"}});
}

/// Every metric family `registry` holds, by name (labels collapsed).
std::set<std::string> RuntimeFamilies(const obs::MetricsRegistry& registry) {
  std::set<std::string> names;
  for (const obs::MetricSample& s : registry.Snapshot().samples) {
    names.insert(s.name);
  }
  return names;
}

/// Every `vada_[a-z0-9_]+` token in DESIGN.md's §5b section.
std::set<std::string> DocumentedFamilies() {
  std::ifstream in(VADA_DESIGN_MD);
  EXPECT_TRUE(in.good()) << "cannot open " << VADA_DESIGN_MD;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  size_t begin = text.find("\n## 5b");
  EXPECT_NE(begin, std::string::npos) << "DESIGN.md lost its §5b heading";
  size_t end = text.find("\n## ", begin + 1);
  if (end == std::string::npos) end = text.size();

  std::set<std::string> names;
  const std::string prefix = "vada_";
  size_t pos = begin;
  while ((pos = text.find(prefix, pos)) != std::string::npos && pos < end) {
    size_t token_end = pos + prefix.size();
    while (token_end < text.size() &&
           (std::islower(static_cast<unsigned char>(text[token_end])) ||
            std::isdigit(static_cast<unsigned char>(text[token_end])) ||
            text[token_end] == '_')) {
      ++token_end;
    }
    if (token_end > pos + prefix.size()) {
      names.insert(text.substr(pos, token_end - pos));
    }
    pos = token_end;
  }
  return names;
}

std::string Join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += "\n  " + n;
  return out;
}

TEST(MetricInventoryTest, RuntimeAndDesignDocAgreeBothWays) {
  obs::MetricsRegistry registry;

  // 1. A full-featured wrangle: shared registry, worker pool, durability
  //    (WAL + checkpoint + recovery families, §5i) and
  //    the introspection server (one scrape registers the server's own
  //    request counter). MetricsReport refreshes the KB and process
  //    gauges.
  {
    std::string wal_dir = testing::TempDir() + "/vada_metric_inventory_wal";
    ASSERT_TRUE(RemoveRecursively(wal_dir).ok());  // fresh durable state
    WranglerConfig config;
    config.obs.registry = &registry;
    config.obs.http_port = 0;
    config.parallelism.threads = 2;
    config.durability.enabled = true;
    config.durability.directory = wal_dir;
    config.durability.fsync = FsyncPolicy::kEveryCommit;
    WranglingSession session(config);
    ASSERT_TRUE(session.durability_open_status().ok())
        << session.durability_open_status().ToString();
    ASSERT_TRUE(Bootstrap(&session).ok());
    ASSERT_TRUE(session.Run().ok());
    ASSERT_TRUE(session.Checkpoint().ok());
    ASSERT_NE(session.obs().http_server(), nullptr);
    Touch(session.obs().http_port(), "/metrics");
    (void)session.MetricsReport();
  }

  // 2. A fault-injected wrangle: failures (attempts exhausted once),
  //    retries and rollback timings land on the same registry.
  {
    FaultInjector::Options fopt;
    fopt.seed = 3;
    fopt.fault_rate = 0.9;
    fopt.max_failures = 2;
    FaultInjector injector(fopt);
    WranglerConfig config;
    config.obs.registry = &registry;
    config.fault_tolerance.max_attempts = 2;  // budget 2 exhausts a step
    config.fault_tolerance.sleep_ms = [](double) {};
    config.transducer_decorator = injector.Decorator();
    WranglingSession session(config);
    ASSERT_TRUE(Bootstrap(&session).ok());
    ASSERT_TRUE(session.Run().ok());
  }

  // 3. A wrangle whose wall-clock budget expires immediately: registers
  //    the budget-exhausted counter without wasting test time.
  {
    WranglerConfig config;
    config.obs.registry = &registry;
    config.fault_tolerance.run_budget_ms = 1e-9;
    WranglingSession session(config);
    ASSERT_TRUE(Bootstrap(&session).ok());
    OrchestrationStats stats;
    ASSERT_TRUE(session.Run(&stats).ok());
    ASSERT_TRUE(stats.budget_exhausted);
  }

  const std::set<std::string> runtime = RuntimeFamilies(registry);
  const std::set<std::string> documented = DocumentedFamilies();
  ASSERT_GE(runtime.size(), 30u) << "wrangle registered suspiciously few "
                                    "families — the scenario lost features";

  std::set<std::string> undocumented;
  for (const std::string& name : runtime) {
    if (documented.count(name) == 0) undocumented.insert(name);
  }
  EXPECT_TRUE(undocumented.empty())
      << "metrics registered at runtime but missing from DESIGN.md §5b:"
      << Join(undocumented);

  std::set<std::string> unregistered;
  for (const std::string& name : documented) {
    if (runtime.count(name) == 0) unregistered.insert(name);
  }
  EXPECT_TRUE(unregistered.empty())
      << "metrics documented in DESIGN.md §5b but never registered by a "
         "full-featured wrangle (stale docs or lost instrumentation):"
      << Join(unregistered);
}

}  // namespace
}  // namespace vada
