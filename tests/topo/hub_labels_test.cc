#include "topo/hub_labels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "topo/generator.h"
#include "topo/shortest_path.h"

namespace dmap {
namespace {

// All weights sit on the 1/64 ms grid, so label merges must reproduce
// Dijkstra's floats exactly — EXPECT_EQ, not EXPECT_NEAR, throughout.
AsGraph MakeDiamond() {
  const std::vector<AsLink> links{
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}, {2, 3, 2.0}};
  return AsGraph(4, links, {0.5, 0.5, 0.5, 4.0}, {1, 1, 1, 1});
}

// Connected random graph (spanning tree + extra chords) with grid-quantized
// positive weights — the shape the topology generators emit.
AsGraph MakeRandomGraph(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AsLink> links;
  for (std::uint32_t i = 1; i < n; ++i) {
    links.push_back(AsLink{AsId(rng.NextBounded(i)), AsId(i),
                           QuantizeLatencyMs(0.3 + 40.0 * rng.NextDouble())});
  }
  for (std::uint32_t e = 0; e < n; ++e) {
    const AsId a = AsId(rng.NextBounded(n));
    const AsId b = AsId(rng.NextBounded(n));
    if (a == b) continue;
    links.push_back(
        AsLink{a, b, QuantizeLatencyMs(0.3 + 40.0 * rng.NextDouble())});
  }
  return AsGraph(n, links, std::vector<double>(n, 0.5),
                 std::vector<double>(n, 1.0));
}

void ExpectAllPairsMatch(const AsGraph& g, const HubLabels& labels) {
  for (AsId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = DijkstraLatency(g, u);
    const auto hops = BfsHops(g, u);
    for (AsId v = 0; v < g.num_nodes(); ++v) {
      if (std::isinf(dist[v])) {
        EXPECT_TRUE(std::isinf(labels.LatencyMs(u, v))) << u << "->" << v;
      } else {
        EXPECT_EQ(labels.LatencyMs(u, v), dist[v]) << u << "->" << v;
      }
      EXPECT_EQ(labels.Hops(u, v), hops[v]) << u << "->" << v;
    }
  }
}

TEST(HubLabelsTest, DiamondAllPairsExact) {
  const AsGraph g = MakeDiamond();
  const HubLabels labels(g);
  ExpectAllPairsMatch(g, labels);
  EXPECT_FLOAT_EQ(labels.LatencyMs(0, 2), 2.0f);  // via node 1
  EXPECT_EQ(labels.Hops(0, 2), 1u);               // direct link wins on hops
  EXPECT_EQ(labels.LatencyMs(1, 1), 0.0f);
  EXPECT_EQ(labels.Hops(3, 3), 0u);
}

TEST(HubLabelsTest, RandomGraphsMatchDijkstraAndBfs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint32_t n = 20 + std::uint32_t(seed) * 5;
    const AsGraph g = MakeRandomGraph(n, seed);
    const HubLabels labels(g);
    ExpectAllPairsMatch(g, labels);
  }
}

TEST(HubLabelsTest, DisconnectedComponentsAreUnreachable) {
  // Two components: {0, 1} and {2, 3}; no path between them.
  const std::vector<AsLink> links{{0, 1, 1.0}, {2, 3, 1.0}};
  const AsGraph g(4, links, {0, 0, 0, 0}, {1, 1, 1, 1});
  const HubLabels labels(g);
  EXPECT_TRUE(std::isinf(labels.LatencyMs(0, 2)));
  EXPECT_TRUE(std::isinf(labels.LatencyMs(3, 1)));
  EXPECT_EQ(labels.Hops(0, 3), kUnreachableHops);
  EXPECT_FLOAT_EQ(labels.LatencyMs(2, 3), 1.0f);
  ExpectAllPairsMatch(g, labels);
}

TEST(HubLabelsTest, FixtureTopologySampledSources) {
  // The real generator output (grid-quantized by construction): full
  // distance vectors from sampled sources must match bit-for-bit.
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(600, 7));
  ThreadPool pool(3);
  const HubLabels labels(g, &pool);
  for (const AsId u : {0u, 17u, 251u, 599u}) {
    const auto dist = DijkstraLatency(g, u);
    const auto hops = BfsHops(g, u);
    for (AsId v = 0; v < g.num_nodes(); ++v) {
      if (std::isinf(dist[v])) {
        EXPECT_TRUE(std::isinf(labels.LatencyMs(u, v)));
      } else {
        EXPECT_EQ(labels.LatencyMs(u, v), dist[v]) << u << "->" << v;
      }
      EXPECT_EQ(labels.Hops(u, v), hops[v]) << u << "->" << v;
    }
  }
}

TEST(HubLabelsTest, ByteIdenticalAcrossThreadCounts) {
  // The label arrays (not just the query answers) are part of the
  // deterministic contract: any --threads value must build the same bytes.
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(400, 13));
  ThreadPool pool1(1);
  ThreadPool pool7(7);
  const HubLabels serial(g, nullptr);
  const HubLabels one(g, &pool1);
  const HubLabels seven(g, &pool7);
  for (const HubLabels* other : {&one, &seven}) {
    EXPECT_EQ(serial.hub_order(), other->hub_order());
    EXPECT_EQ(serial.latency_offsets(), other->latency_offsets());
    EXPECT_EQ(serial.latency_hubs(), other->latency_hubs());
    EXPECT_EQ(serial.latency_dists(), other->latency_dists());
    EXPECT_EQ(serial.hop_offsets(), other->hop_offsets());
    EXPECT_EQ(serial.hop_hubs(), other->hop_hubs());
    EXPECT_EQ(serial.hop_dists(), other->hop_dists());
  }
  EXPECT_EQ(serial.stats().latency_entries, seven.stats().latency_entries);
  EXPECT_EQ(serial.stats().hop_entries, seven.stats().hop_entries);
}

TEST(HubLabelsTest, HubOrderIsDegreeThenId) {
  const AsGraph g = MakeDiamond();  // degrees: 0->2, 1->2, 2->3, 3->1
  const HubLabels labels(g);
  ASSERT_EQ(labels.hub_order().size(), 4u);
  EXPECT_EQ(labels.hub_order()[0], 2u);
  EXPECT_EQ(labels.hub_order()[1], 0u);  // ties broken by ascending id
  EXPECT_EQ(labels.hub_order()[2], 1u);
  EXPECT_EQ(labels.hub_order()[3], 3u);
}

TEST(PathOracleHubBackendTest, RoutesPointQueriesThroughLabels) {
  const AsGraph g = MakeDiamond();
  const HubLabels labels(g);
  PathOracle oracle(g);
  EXPECT_EQ(oracle.hub_labels(), nullptr);
  oracle.SetHubLabels(&labels);
  EXPECT_EQ(oracle.hub_labels(), &labels);
  EXPECT_DOUBLE_EQ(oracle.LinkLatencyMs(0, 2), 2.0);
  EXPECT_EQ(oracle.Hops(0, 3), 2u);
  EXPECT_DOUBLE_EQ(oracle.OneWayMs(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(oracle.RttMs(0, 2), 6.0);
  // Point queries never ran an SSSP; the label counter saw all four.
  EXPECT_EQ(oracle.dijkstra_runs(), 0u);
  EXPECT_EQ(oracle.bfs_runs(), 0u);
  EXPECT_EQ(oracle.label_queries(), 4u);
  // Full-vector requests still use the Dijkstra+LRU path.
  const auto from0 = oracle.LatenciesFrom(0);
  ASSERT_TRUE(from0.valid());
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  // Detaching restores the LRU backend.
  oracle.SetHubLabels(nullptr);
  EXPECT_EQ(oracle.hub_labels(), nullptr);
}

TEST(PathOracleHubBackendTest, BackendsAgreeBitForBit) {
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 9));
  const HubLabels labels(g);
  PathOracle lru(g);
  PathOracle hub(g);
  hub.SetHubLabels(&labels);
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const AsId a = AsId(rng.NextBounded(g.num_nodes()));
    const AsId b = AsId(rng.NextBounded(g.num_nodes()));
    EXPECT_EQ(lru.LinkLatencyMs(a, b), hub.LinkLatencyMs(a, b));
    EXPECT_EQ(lru.Hops(a, b), hub.Hops(a, b));
    EXPECT_EQ(lru.RttMs(a, b), hub.RttMs(a, b));
  }
}

TEST(PathOracleHubBackendTest, RejectsLabelsForDifferentGraph) {
  const AsGraph small = MakeDiamond();
  const AsGraph big = GenerateInternetTopology(ScaledTopologyParams(50, 1));
  const HubLabels labels(small);
  PathOracle oracle(big);
  EXPECT_THROW(oracle.SetHubLabels(&labels), std::invalid_argument);
}

TEST(QuantizeLatencyTest, SnapsToGridAndStaysPositive) {
  EXPECT_DOUBLE_EQ(QuantizeLatencyMs(1.0), 1.0);  // already on the grid
  EXPECT_DOUBLE_EQ(QuantizeLatencyMs(0.0), kLatencyGridMs);
  EXPECT_DOUBLE_EQ(QuantizeLatencyMs(0.008), kLatencyGridMs);
  const double q = QuantizeLatencyMs(37.123456);
  EXPECT_DOUBLE_EQ(q / kLatencyGridMs, std::round(q / kLatencyGridMs));
  EXPECT_NEAR(q, 37.123456, kLatencyGridMs / 2 + 1e-12);
}

}  // namespace
}  // namespace dmap
