#include "topo/hub_labels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <thread>
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

// Labels answer every latency pair as Dijkstra does, and an oracle with
// the labels attached answers every hop pair as BFS does (hop counts are
// not labelled; the oracle runs the BFS).
void ExpectAllPairsMatch(const AsGraph& g, const HubLabels& labels) {
  PathOracle oracle(g);
  oracle.SetHubLabels(&labels);
  for (AsId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = DijkstraLatency(g, u);
    const auto hops = BfsHops(g, u);
    for (AsId v = 0; v < g.num_nodes(); ++v) {
      if (std::isinf(dist[v])) {
        EXPECT_TRUE(std::isinf(labels.LatencyMs(u, v))) << u << "->" << v;
      } else {
        EXPECT_EQ(labels.LatencyMs(u, v), dist[v]) << u << "->" << v;
      }
      EXPECT_EQ(oracle.Hops(u, v), hops[v]) << u << "->" << v;
    }
  }
}

constexpr float kInf = std::numeric_limits<float>::infinity();

// LatenciesTo(u, ...) over every node, then u again and two duplicates,
// must return LatencyMs's exact float bits, and leave `scratch` all +inf
// for the next call.
void ExpectOneToKMatches(const HubLabels& labels, AsId u,
                         std::vector<float>& scratch) {
  const std::uint32_t n = labels.num_nodes();
  std::vector<AsId> targets;
  for (AsId v = 0; v < n; ++v) targets.push_back(v);
  targets.push_back(u);
  targets.push_back(0);
  targets.push_back(n - 1);
  std::vector<float> out(targets.size(), -1.0f);
  labels.LatenciesTo(u, targets.data(), targets.size(), out.data(),
                     scratch.data());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[t]),
              std::bit_cast<std::uint32_t>(labels.LatencyMs(u, targets[t])))
        << u << "->" << targets[t];
  }
  for (std::uint32_t r = 0; r < n; ++r) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(scratch[r]),
              std::bit_cast<std::uint32_t>(kInf))
        << "scratch rank " << r << " left dirty by source " << u;
  }
}

TEST(HubLabelsTest, LatenciesToMatchesPointQueries) {
  const AsGraph diamond = MakeDiamond();
  const HubLabels diamond_labels(diamond);
  std::vector<float> scratch(diamond.num_nodes(), kInf);
  for (AsId u = 0; u < diamond.num_nodes(); ++u) {
    ExpectOneToKMatches(diamond_labels, u, scratch);
  }

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AsGraph g = MakeRandomGraph(20 + std::uint32_t(seed) * 5, seed);
    const HubLabels labels(g);
    scratch.assign(g.num_nodes(), kInf);
    for (AsId u = 0; u < g.num_nodes(); ++u) {
      ExpectOneToKMatches(labels, u, scratch);
    }
  }

  // Two components: every target across the gap reads +inf.
  const std::vector<AsLink> links{{0, 1, 1.0}, {2, 3, 1.0}};
  const AsGraph split(4, links, {0, 0, 0, 0}, {1, 1, 1, 1});
  const HubLabels split_labels(split);
  scratch.assign(split.num_nodes(), kInf);
  for (AsId u = 0; u < split.num_nodes(); ++u) {
    ExpectOneToKMatches(split_labels, u, scratch);
  }
  const AsId across[] = {2, 3, 1, 2};
  float out[4];
  split_labels.LatenciesTo(0, across, 4, out, scratch.data());
  EXPECT_TRUE(std::isinf(out[0]));
  EXPECT_TRUE(std::isinf(out[1]));
  EXPECT_EQ(out[2], 1.0f);
  EXPECT_TRUE(std::isinf(out[3]));

  const AsGraph fixture =
      GenerateInternetTopology(ScaledTopologyParams(600, 7));
  ThreadPool pool(3);
  const HubLabels fixture_labels(fixture, &pool);
  scratch.assign(fixture.num_nodes(), kInf);
  for (const AsId u : {0u, 17u, 251u, 599u}) {
    ExpectOneToKMatches(fixture_labels, u, scratch);
  }
  // An empty target list only writes and clears u's label.
  fixture_labels.LatenciesTo(17, nullptr, 0, nullptr, scratch.data());
  for (const float entry : scratch) ASSERT_TRUE(std::isinf(entry));
}

TEST(HubLabelsTest, DiamondAllPairsExact) {
  const AsGraph g = MakeDiamond();
  const HubLabels labels(g);
  ExpectAllPairsMatch(g, labels);
  EXPECT_FLOAT_EQ(labels.LatencyMs(0, 2), 2.0f);  // via node 1
  EXPECT_EQ(labels.LatencyMs(1, 1), 0.0f);
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
    for (AsId v = 0; v < g.num_nodes(); ++v) {
      if (std::isinf(dist[v])) {
        EXPECT_TRUE(std::isinf(labels.LatencyMs(u, v)));
      } else {
        EXPECT_EQ(labels.LatencyMs(u, v), dist[v]) << u << "->" << v;
      }
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
  }
  EXPECT_EQ(serial.stats().latency_entries, seven.stats().latency_entries);
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
  EXPECT_DOUBLE_EQ(oracle.OneWayMs(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(oracle.RttMs(0, 2), 6.0);
  // Latency point queries never ran an SSSP; the label counter saw all
  // three.
  EXPECT_EQ(oracle.dijkstra_runs(), 0u);
  EXPECT_EQ(oracle.label_queries(), 3u);
  // Hop counts are not labelled: they come from one BFS per source behind
  // the LRU, and no label query is counted for them.
  const std::vector<std::uint16_t> hops0 = BfsHops(g, 0);
  EXPECT_EQ(oracle.Hops(0, 3), hops0[3]);
  EXPECT_EQ(oracle.Hops(0, 3), 2u);
  EXPECT_EQ(oracle.Hops(0, 2), hops0[2]);
  EXPECT_EQ(oracle.bfs_runs(), 1u);
  EXPECT_EQ(oracle.hops_cache_hits(), 2u);
  EXPECT_EQ(oracle.Hops(3, 0), BfsHops(g, 3)[0]);
  EXPECT_EQ(oracle.bfs_runs(), 2u);
  EXPECT_EQ(oracle.label_queries(), 3u);
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
  std::uint64_t latency_queries = 0;
  for (int i = 0; i < 200; ++i) {
    const AsId a = AsId(rng.NextBounded(g.num_nodes()));
    const AsId b = AsId(rng.NextBounded(g.num_nodes()));
    EXPECT_EQ(lru.LinkLatencyMs(a, b), hub.LinkLatencyMs(a, b));
    // Both backends answer hops from BFS.
    const std::uint16_t hops = BfsHops(g, a)[b];
    EXPECT_EQ(lru.Hops(a, b), hops);
    EXPECT_EQ(hub.Hops(a, b), hops);
    EXPECT_EQ(lru.RttMs(a, b), hub.RttMs(a, b));
    // LinkLatencyMs, and RttMs unless a == b (a local resolution).
    latency_queries += a == b ? 1 : 2;
  }
  EXPECT_EQ(hub.label_queries(), latency_queries);
  EXPECT_EQ(lru.label_queries(), 0u);
  // Same query stream, same BFS cache: the labels change no hop query.
  EXPECT_GT(hub.bfs_runs(), 0u);
  EXPECT_EQ(hub.bfs_runs(), lru.bfs_runs());
  EXPECT_EQ(hub.hops_cache_hits(), lru.hops_cache_hits());
  EXPECT_EQ(hub.dijkstra_runs(), 0u);
}

TEST(PathOracleHubBackendTest, RejectsLabelsForDifferentGraph) {
  const AsGraph small = MakeDiamond();
  const AsGraph big = GenerateInternetTopology(ScaledTopologyParams(50, 1));
  const HubLabels labels(small);
  PathOracle oracle(big);
  EXPECT_THROW(oracle.SetHubLabels(&labels), std::invalid_argument);

  // Same node count, different graph: another seed of the generator.
  const AsGraph other = GenerateInternetTopology(ScaledTopologyParams(50, 2));
  ASSERT_EQ(other.num_nodes(), big.num_nodes());
  const HubLabels big_labels(big);
  PathOracle other_oracle(other);
  EXPECT_THROW(other_oracle.SetHubLabels(&big_labels),
               std::invalid_argument);
  EXPECT_EQ(other_oracle.hub_labels(), nullptr);

  // Same nodes and links, one latency changed: only the checksum differs.
  const std::vector<AsLink> slower{
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 6.0}, {2, 3, 2.0}};
  const AsGraph diamond_b(4, slower, {0.5, 0.5, 0.5, 4.0}, {1, 1, 1, 1});
  ASSERT_EQ(diamond_b.num_links(), small.num_links());
  EXPECT_FALSE(labels.BuiltOver(diamond_b));
  PathOracle diamond_oracle(diamond_b);
  EXPECT_THROW(diamond_oracle.SetHubLabels(&labels), std::invalid_argument);

  // An equal graph built separately is the same graph.
  const AsGraph big_again =
      GenerateInternetTopology(ScaledTopologyParams(50, 1));
  PathOracle again(big_again);
  EXPECT_NO_THROW(again.SetHubLabels(&big_labels));
  EXPECT_EQ(again.hub_labels(), &big_labels);
}

// out[i] must carry RttMs's exact double bits for every target, on both
// backends.
void ExpectRttsMatch(PathOracle& oracle, AsId src,
                     const std::vector<AsId>& dsts, unsigned shard = 0) {
  std::vector<double> out(dsts.size(), -1.0);
  oracle.RttsMs(src, dsts.data(), dsts.size(), out.data(), shard);
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(oracle.RttMs(src, dsts[i], shard)))
        << src << "->" << dsts[i];
  }
}

TEST(PathOracleHubBackendTest, RttsMsMatchesRttMsOnBothBackends) {
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 9));
  const HubLabels labels(g);
  PathOracle lru(g);
  PathOracle hub(g);
  hub.SetHubLabels(&labels);
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const AsId src = AsId(rng.NextBounded(g.num_nodes()));
    // Up to 70 targets crosses RttsMs's stack blocks more than once.
    const std::size_t count = 1 + rng.NextBounded(70);
    std::vector<AsId> dsts;
    for (std::size_t i = 0; i < count; ++i) {
      dsts.push_back(AsId(rng.NextBounded(g.num_nodes())));
    }
    dsts[rng.NextBounded(count)] = src;  // the source itself
    dsts.push_back(dsts.front());        // a duplicate

    const std::uint64_t before = hub.label_queries();
    std::vector<double> from_labels(dsts.size());
    hub.RttsMs(src, dsts.data(), dsts.size(), from_labels.data());
    EXPECT_EQ(hub.label_queries() - before, dsts.size());

    std::vector<double> from_lru(dsts.size());
    lru.RttsMs(src, dsts.data(), dsts.size(), from_lru.data());
    EXPECT_EQ(lru.label_queries(), 0u);
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_labels[i]),
                std::bit_cast<std::uint64_t>(from_lru[i]));
    }
    ExpectRttsMatch(hub, src, dsts);
    ExpectRttsMatch(lru, src, dsts);
  }

  // Unreachable targets cost +inf on both backends; zero targets is a
  // no-op that counts nothing.
  const std::vector<AsLink> links{{0, 1, 1.0}, {2, 3, 1.0}};
  const AsGraph split(4, links, {0.5, 0.5, 0.5, 0.5}, {1, 1, 1, 1});
  const HubLabels split_labels(split);
  PathOracle split_lru(split);
  PathOracle split_hub(split);
  split_hub.SetHubLabels(&split_labels);
  for (PathOracle* oracle : {&split_lru, &split_hub}) {
    for (AsId src = 0; src < 4; ++src) {
      ExpectRttsMatch(*oracle, src, {0, 1, 2, 3, src});
    }
    double out[2];
    const AsId across[] = {3, 0};
    oracle->RttsMs(0, across, 2, out);
    EXPECT_TRUE(std::isinf(out[0]));
    EXPECT_EQ(out[1], 1.0);  // 2 x intra(0)
    const std::uint64_t before = oracle->label_queries();
    oracle->RttsMs(0, nullptr, 0, nullptr);
    EXPECT_EQ(oracle->label_queries(), before);
  }
}

TEST(PathOracleHubBackendTest, RttsMsOnTwoShardsMatchesSerialRun) {
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 9));
  const HubLabels labels(g);
  // One (source, targets) list per shard, answered serially first.
  Rng rng(5);
  std::vector<std::pair<AsId, std::vector<AsId>>> queries[2];
  for (auto& list : queries) {
    for (int q = 0; q < 200; ++q) {
      std::vector<AsId> dsts(5);
      for (AsId& d : dsts) d = AsId(rng.NextBounded(g.num_nodes()));
      list.emplace_back(AsId(rng.NextBounded(g.num_nodes())), dsts);
    }
  }
  PathOracle serial(g);
  serial.SetHubLabels(&labels);
  std::vector<double> expected[2];
  for (int s = 0; s < 2; ++s) {
    for (const auto& [src, dsts] : queries[s]) {
      for (const AsId d : dsts) expected[s].push_back(serial.RttMs(src, d));
    }
  }

  PathOracle oracle(g);
  oracle.SetNumShards(2);
  oracle.SetHubLabels(&labels);
  std::vector<double> got[2];
  const auto run = [&](unsigned shard) {
    double out[5];
    for (const auto& [src, dsts] : queries[shard]) {
      oracle.RttsMs(src, dsts.data(), dsts.size(), out, shard);
      got[shard].insert(got[shard].end(), out, out + dsts.size());
    }
  };
  std::thread t0(run, 0u);
  std::thread t1(run, 1u);
  t0.join();
  t1.join();
  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size());
    for (std::size_t i = 0; i < got[s].size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s][i]),
                std::bit_cast<std::uint64_t>(expected[s][i]));
    }
  }
  EXPECT_EQ(oracle.label_queries(), 2u * 200u * 5u);
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
