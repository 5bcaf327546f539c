// Cross-backend contract suite: every NameResolver backend — DMap and the
// three related-work baselines — must present the same Insert / Update /
// Lookup semantics (DESIGN.md §3 and §6), so the baseline comparison can
// swap schemes without scheme-specific glue. Parametrized over backend
// factories; any new backend joins by adding a factory line.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "baseline/central_directory.h"
#include "baseline/chord_dht.h"
#include "baseline/home_agent.h"
#include "baseline/resolver.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "sim/environment.h"

namespace dmap {
namespace {

struct ContractEnv {
  SimEnvironment env;
  PathOracle oracle;
  ContractEnv()
      : env(BuildEnvironment(EnvironmentParams::Scaled(400))),
        oracle(env.graph) {}
};

// One topology shared by every case: the contract is about verb semantics,
// not placement, and environment builds dominate the suite's runtime.
ContractEnv& SharedEnv() {
  static ContractEnv* shared = new ContractEnv();
  return *shared;
}

struct BackendCase {
  const char* label;
  std::function<std::unique_ptr<NameResolver>(ContractEnv&)> make;
};

void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.label; }

class ResolverContractTest : public testing::TestWithParam<BackendCase> {
 protected:
  ResolverContractTest() : resolver_(GetParam().make(SharedEnv())) {}

  std::unique_ptr<NameResolver> resolver_;
};

TEST_P(ResolverContractTest, InsertLookupUpdateLookupDeregisterMiss) {
  NameResolver& r = *resolver_;
  const Guid g = Guid::FromSequence(42);
  const AsId querier = 123;

  const UpdateResult inserted = r.Insert(g, NetworkAddress{10, 1});
  EXPECT_GE(inserted.attempts, 1);

  LookupResult found = r.Lookup(g, querier);
  ASSERT_TRUE(found.found);
  EXPECT_TRUE(found.nas.AttachedTo(10));

  r.Update(g, NetworkAddress{20, 2});
  found = r.Lookup(g, querier);
  ASSERT_TRUE(found.found);
  EXPECT_TRUE(found.nas.AttachedTo(20));
  EXPECT_FALSE(found.nas.AttachedTo(10));

  EXPECT_FALSE(r.Lookup(Guid::FromSequence(43), querier).found);
}

TEST_P(ResolverContractTest, LookupOutcomeInvariants) {
  NameResolver& r = *resolver_;
  const Guid known = Guid::FromSequence(7);
  r.Insert(known, NetworkAddress{30, 1});
  for (const Guid& g : {known, Guid::FromSequence(8)}) {
    for (const AsId querier : {AsId(5), AsId(250)}) {
      const LookupResult result = r.Lookup(g, querier);
      EXPECT_GE(result.attempts, 1);
      EXPECT_GE(result.latency_ms, 0.0);
      if (result.served_locally) {
        EXPECT_TRUE(result.found);
      }
    }
  }
}

// None of the closed-form backends model server capacity, so all of them
// must report the uniform serving-tier defaults — zero queue delay, a
// served admission — on hits and misses alike. Only the executors with a
// ServingTier installed may ever report anything else.
TEST_P(ResolverContractTest, AdmissionDefaultsToZeroDelayServed) {
  NameResolver& r = *resolver_;
  const Guid known = Guid::FromSequence(17);
  const UpdateResult inserted = r.Insert(known, NetworkAddress{40, 1});
  EXPECT_DOUBLE_EQ(inserted.queue_delay_ms, 0.0);
  EXPECT_EQ(inserted.admission, AdmissionOutcome::kServed);
  for (const Guid& g : {known, Guid::FromSequence(18)}) {
    const LookupResult result = r.Lookup(g, 99);
    EXPECT_DOUBLE_EQ(result.queue_delay_ms, 0.0);
    EXPECT_EQ(result.admission, AdmissionOutcome::kServed);
  }
}

TEST_P(ResolverContractTest, UpdateOfUnknownGuidThrows) {
  EXPECT_THROW(resolver_->Update(Guid::FromSequence(999),
                                 NetworkAddress{1, 1}),
               std::invalid_argument);
}

TEST_P(ResolverContractTest, MetricsCountLookupsAndSplitHitMiss) {
  NameResolver& r = *resolver_;
  MetricsRegistry registry;
  r.EnableMetrics(&registry);
  const Guid g = Guid::FromSequence(19);
  r.Insert(g, NetworkAddress{90, 1});
  r.Lookup(g, 3);                       // hit
  r.Lookup(Guid::FromSequence(20), 3);  // miss

  std::uint64_t lookups = 0, hits = 0, misses = 0;
  for (const CounterSnapshot& c : registry.Snapshot().counters) {
    // "dmap.lookups" for DMapResolver, "<scheme>.lookups" otherwise.
    if (c.name.ends_with(".lookups")) lookups = c.value;
    if (c.name.ends_with(".lookup_hits")) hits = c.value;
    if (c.name.ends_with(".lookup_misses")) misses = c.value;
  }
  EXPECT_EQ(lookups, 2u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
}

TEST_P(ResolverContractTest, TracingFillsOutcomeTrace) {
  NameResolver& r = *resolver_;
  ProbeTracer tracer(1, 1);  // sample everything
  r.EnableTracing(&tracer);
  const Guid g = Guid::FromSequence(23);
  r.Insert(g, NetworkAddress{95, 1});
  const LookupResult result = r.Lookup(g, 7);
  ASSERT_TRUE(result.trace.has_value());
  const ProbeTrace& trace = *result.trace;
  EXPECT_EQ(trace.op, 'L');
  EXPECT_EQ(trace.guid_fp, g.Fingerprint64());
  EXPECT_EQ(trace.querier, 7u);
  EXPECT_TRUE(trace.found);
  EXPECT_EQ(trace.attempts, result.attempts);
  EXPECT_DOUBLE_EQ(trace.latency_ms, result.latency_ms);
  ASSERT_GE(trace.probes.size(), 1u);
  EXPECT_EQ(trace.probes.back().outcome, ProbeOutcome::kHit);
  EXPECT_EQ(tracer.recorded(), 1u);  // sink got a copy
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ResolverContractTest,
    testing::Values(
        BackendCase{"dmap",
                    [](ContractEnv& e) -> std::unique_ptr<NameResolver> {
                      DMapOptions options;
                      options.k = 5;
                      return std::make_unique<DMapResolver>(
                          e.env.graph, e.env.table, options);
                    }},
        BackendCase{"chord",
                    [](ContractEnv& e) -> std::unique_ptr<NameResolver> {
                      return std::make_unique<ChordDht>(e.env.graph,
                                                        e.oracle);
                    }},
        BackendCase{"home_agent",
                    [](ContractEnv& e) -> std::unique_ptr<NameResolver> {
                      return std::make_unique<HomeAgent>(e.oracle);
                    }},
        BackendCase{"central",
                    [](ContractEnv& e) -> std::unique_ptr<NameResolver> {
                      return std::make_unique<CentralDirectory>(e.oracle,
                                                                AsId(1));
                    }}),
    [](const testing::TestParamInfo<BackendCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace dmap
