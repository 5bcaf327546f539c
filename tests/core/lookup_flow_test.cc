#include "core/lookup_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "common/rng.h"
#include "topo/generator.h"
#include "topo/hub_labels.h"

namespace dmap {
namespace {

// 0 --1ms-- 1 --1ms-- 2, a direct 0 --5ms-- 2 link, 2 --2ms-- 3 and
// 1 --0.1ms-- 4. From AS 0, AS 2 is one hop away but AS 4 (two hops) is
// closer in time.
AsGraph MakeGraph() {
  const std::vector<AsLink> links{
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}, {2, 3, 2.0}, {1, 4, 0.1}};
  return AsGraph(5, links, {0.5, 0.5, 0.5, 4.0, 0.5}, {1, 1, 1, 1, 1});
}

std::vector<HostResolution> Replicas(const std::vector<AsId>& hosts) {
  std::vector<HostResolution> replicas;
  for (const AsId host : hosts) {
    HostResolution r;
    r.host = host;
    r.stored_address = Ipv4Address(0x0a000000u + host);
    replicas.push_back(r);
  }
  return replicas;
}

std::vector<AsId> Hosts(const std::vector<PlannedProbe>& plan) {
  std::vector<AsId> hosts;
  for (const PlannedProbe& probe : plan) hosts.push_back(probe.host);
  return hosts;
}

TEST(PlanProbesTest, LowestRttOrdersByRoundTripAndCarriesAddresses) {
  const AsGraph graph = MakeGraph();
  PathOracle oracle(graph);
  const std::vector<PlannedProbe> plan =
      PlanProbes(Replicas({3, 2, 4}), /*querier=*/0,
                 ReplicaSelection::kLowestRtt, oracle);
  EXPECT_EQ(Hosts(plan), (std::vector<AsId>{4, 2, 3}));
  for (const PlannedProbe& probe : plan) {
    EXPECT_EQ(probe.rtt, oracle.RttMs(0, probe.host));
    EXPECT_EQ(probe.stored_address, Ipv4Address(0x0a000000u + probe.host));
  }
}

TEST(PlanProbesTest, EqualRoundTripsBreakTowardTheLowerHostId) {
  // A star: every leaf is the same distance from the hub.
  const std::vector<AsLink> links{{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}};
  const AsGraph graph(4, links, {0.5, 0.5, 0.5, 0.5}, {1, 1, 1, 1});
  PathOracle oracle(graph);
  const std::vector<PlannedProbe> plan =
      PlanProbes(Replicas({3, 1, 2}), 0, ReplicaSelection::kLowestRtt,
                 oracle);
  EXPECT_EQ(Hosts(plan), (std::vector<AsId>{1, 2, 3}));
}

TEST(PlanProbesTest, FewestHopsOrdersByHopsButChargesRealRtt) {
  const AsGraph graph = MakeGraph();
  PathOracle oracle(graph);
  const std::vector<PlannedProbe> plan =
      PlanProbes(Replicas({3, 4, 2}), 0, ReplicaSelection::kFewestHops,
                 oracle);
  // One hop to AS 2; two to ASes 3 and 4, tied and broken by host id.
  EXPECT_EQ(Hosts(plan), (std::vector<AsId>{2, 3, 4}));
  for (const PlannedProbe& probe : plan) {
    EXPECT_EQ(probe.rtt, oracle.RttMs(0, probe.host));
  }
  EXPECT_GT(plan[0].rtt, plan[2].rtt);  // the hop order is not the RTT one
}

// PlanProbes spelled out with per-pair point queries: sort key RttMs or
// Hops, host id on ties, then every probe charged its RttMs.
std::vector<PlannedProbe> ReferencePlan(
    const std::vector<HostResolution>& replicas, AsId querier,
    ReplicaSelection selection, PathOracle& oracle) {
  std::vector<PlannedProbe> plan;
  for (const HostResolution& r : replicas) {
    const double key = selection == ReplicaSelection::kLowestRtt
                           ? oracle.RttMs(querier, r.host)
                           : double(oracle.Hops(querier, r.host));
    plan.push_back(PlannedProbe{r.host, key, r.stored_address});
  }
  std::sort(plan.begin(), plan.end(),
            [](const PlannedProbe& a, const PlannedProbe& b) {
              return a.rtt != b.rtt ? a.rtt < b.rtt : a.host < b.host;
            });
  for (PlannedProbe& probe : plan) {
    probe.rtt = oracle.RttMs(querier, probe.host);
  }
  return plan;
}

TEST(PlanProbesTest, SeededReplicaSetsMatchPerPairReference) {
  const AsGraph graph =
      GenerateInternetTopology(ScaledTopologyParams(300, 4));
  const HubLabels labels(graph);
  PathOracle lru(graph);
  PathOracle hub(graph);
  hub.SetHubLabels(&labels);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const AsId querier = AsId(rng.NextBounded(graph.num_nodes()));
    // K up to 40 crosses the one-to-K query's stack blocks.
    const std::size_t k = seed % 16 == 0 ? 40 : 1 + rng.NextBounded(8);
    std::vector<AsId> hosts;
    for (std::size_t i = 0; i < k; ++i) {
      hosts.push_back(AsId(rng.NextBounded(graph.num_nodes())));
    }
    if (seed % 3 == 0) hosts[0] = querier;  // the querier hosts a replica
    if (seed % 5 == 0) hosts.push_back(hosts.back());  // a duplicate host
    const std::vector<HostResolution> replicas = Replicas(hosts);
    for (const ReplicaSelection selection :
         {ReplicaSelection::kLowestRtt, ReplicaSelection::kFewestHops}) {
      for (PathOracle* oracle : {&lru, &hub}) {
        const std::vector<PlannedProbe> plan =
            PlanProbes(replicas, querier, selection, *oracle);
        const std::vector<PlannedProbe> reference =
            ReferencePlan(replicas, querier, selection, *oracle);
        ASSERT_EQ(plan.size(), reference.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
          EXPECT_EQ(plan[i].host, reference[i].host) << "seed " << seed;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(plan[i].rtt),
                    std::bit_cast<std::uint64_t>(reference[i].rtt))
              << "seed " << seed;
          EXPECT_EQ(plan[i].stored_address, reference[i].stored_address);
        }
      }
    }
  }
}

TEST(LookupFlowTest, OneStreamWalksThePlanInOrder) {
  LookupFlow flow(3, 1, 0);
  EXPECT_FALSE(flow.Probing());
  for (std::size_t index = 0; index < 3; ++index) {
    ASSERT_TRUE(flow.Advance(0));
    EXPECT_EQ(flow.stream(0).index, index);
    EXPECT_EQ(flow.Awaiting(index), 0u);
    EXPECT_EQ(flow.attempts(), int(index) + 1);
  }
  EXPECT_FALSE(flow.Advance(0));  // exhausted: the stream stops
  EXPECT_EQ(flow.stream(0).index, LookupFlow::kNone);
  EXPECT_FALSE(flow.Probing());
  EXPECT_EQ(flow.attempts(), 3);
}

TEST(LookupFlowTest, TimeoutsRetransmitThenGiveUpChargingEveryWait) {
  LookupFlow flow(2, 1, 2);
  ASSERT_TRUE(flow.Advance(0));
  EXPECT_EQ(flow.TimedOut(0, 0, 100.0), LookupFlow::Timeout::kRetransmit);
  EXPECT_EQ(flow.stream(0).retry, 1);
  EXPECT_EQ(flow.TimedOut(0, 0, 200.0), LookupFlow::Timeout::kRetransmit);
  EXPECT_EQ(flow.stream(0).retry, 2);
  EXPECT_EQ(flow.TimedOut(0, 0, 400.0), LookupFlow::Timeout::kGiveUp);
  EXPECT_EQ(flow.stream(0).charged_ms, 700.0);
  EXPECT_EQ(flow.attempts(), 1);  // retransmissions are not attempts

  ASSERT_TRUE(flow.Advance(0));
  EXPECT_EQ(flow.stream(0).index, 1u);
  EXPECT_EQ(flow.stream(0).retry, 0);
  EXPECT_EQ(flow.stream(0).charged_ms, 0.0);
  // A timer for the replica the stream moved past is stale: no charge.
  EXPECT_EQ(flow.TimedOut(0, 0, 800.0), LookupFlow::Timeout::kStale);
  EXPECT_EQ(flow.stream(0).charged_ms, 0.0);
}

TEST(LookupFlowTest, StreamsShareOneClaimCursor) {
  LookupFlow flow(4, 2, 0);
  ASSERT_TRUE(flow.Advance(0));
  ASSERT_TRUE(flow.Advance(1));
  EXPECT_EQ(flow.stream(0).index, 0u);
  EXPECT_EQ(flow.stream(1).index, 1u);
  EXPECT_EQ(flow.Awaiting(1), 1u);

  flow.Stop(1);  // replica 1 answered found
  EXPECT_EQ(flow.Awaiting(1), LookupFlow::kNone);
  EXPECT_TRUE(flow.Probing());

  ASSERT_TRUE(flow.Advance(0));  // replica 0 missed: claim the next one
  EXPECT_EQ(flow.stream(0).index, 2u);
  EXPECT_EQ(flow.Awaiting(0), LookupFlow::kNone);  // a reply now is late
  ASSERT_TRUE(flow.Advance(0));
  EXPECT_EQ(flow.stream(0).index, 3u);
  EXPECT_FALSE(flow.Advance(0));
  EXPECT_FALSE(flow.Probing());
  EXPECT_EQ(flow.attempts(), 4);
}

TEST(LookupFlowTest, CompletesOnceAndStalesEveryTimer) {
  LookupFlow flow(2, 1, 1);
  ASSERT_TRUE(flow.Advance(0));
  EXPECT_FALSE(flow.completed());
  EXPECT_TRUE(flow.Complete());
  EXPECT_FALSE(flow.Complete());  // the losing racer is dropped
  EXPECT_TRUE(flow.completed());
  EXPECT_EQ(flow.TimedOut(0, 0, 100.0), LookupFlow::Timeout::kStale);
}

}  // namespace
}  // namespace dmap
