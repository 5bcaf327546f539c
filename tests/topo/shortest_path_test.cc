#include "topo/shortest_path.h"

#include <gtest/gtest.h>

#include <cmath>

#include "topo/generator.h"

namespace dmap {
namespace {

// 0 --1ms-- 1 --1ms-- 2 and a direct 0 --5ms-- 2 edge; plus dangling 3.
AsGraph MakeDiamond() {
  const std::vector<AsLink> links{
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}, {2, 3, 2.0}};
  return AsGraph(4, links, {0.5, 0.5, 0.5, 4.0}, {1, 1, 1, 1});
}

TEST(DijkstraTest, PrefersMultiHopWhenCheaper) {
  const AsGraph g = MakeDiamond();
  const auto dist = DijkstraLatency(g, 0);
  EXPECT_FLOAT_EQ(dist[0], 0.0f);
  EXPECT_FLOAT_EQ(dist[1], 1.0f);
  EXPECT_FLOAT_EQ(dist[2], 2.0f);  // via node 1, not the 5ms direct link
  EXPECT_FLOAT_EQ(dist[3], 4.0f);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  const std::vector<AsLink> links{{0, 1, 1.0}};
  const AsGraph g(3, links, {0, 0, 0}, {1, 1, 1});
  const auto dist = DijkstraLatency(g, 0);
  EXPECT_TRUE(std::isinf(dist[2]));
}

TEST(BfsHopsTest, CountsMinimumEdges) {
  const AsGraph g = MakeDiamond();
  const auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 1u);  // the direct link wins on hops despite latency
  EXPECT_EQ(hops[3], 2u);
}

TEST(BfsHopsTest, UnreachableMarker) {
  const std::vector<AsLink> links{{0, 1, 1.0}};
  const AsGraph g(3, links, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(BfsHops(g, 0)[2], kUnreachableHops);
}

TEST(PathOracleTest, OneWayAndRttComposition) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g);
  // intra(0) + path + intra(2) = 0.5 + 2.0 + 0.5.
  EXPECT_DOUBLE_EQ(oracle.OneWayMs(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(oracle.RttMs(0, 2), 6.0);
  // Same-AS resolution costs one intra-AS traversal each way.
  EXPECT_DOUBLE_EQ(oracle.OneWayMs(3, 3), 4.0);
  EXPECT_DOUBLE_EQ(oracle.RttMs(3, 3), 8.0);
}

TEST(PathOracleTest, CachesPerSource) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 8);
  oracle.LinkLatencyMs(0, 1);
  oracle.LinkLatencyMs(0, 2);
  oracle.LinkLatencyMs(0, 3);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  oracle.LinkLatencyMs(1, 0);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
  oracle.Hops(0, 3);
  oracle.Hops(0, 2);
  EXPECT_EQ(oracle.bfs_runs(), 1u);
}

TEST(PathOracleTest, LruEvictsLeastRecentlyUsed) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 2);
  oracle.LinkLatencyMs(0, 1);  // cache: {0}
  oracle.LinkLatencyMs(1, 0);  // cache: {1, 0}
  oracle.LinkLatencyMs(0, 2);  // hit; cache: {0, 1}
  oracle.LinkLatencyMs(2, 0);  // evicts 1; cache: {2, 0}
  EXPECT_EQ(oracle.dijkstra_runs(), 3u);
  oracle.LinkLatencyMs(1, 0);  // miss again
  EXPECT_EQ(oracle.dijkstra_runs(), 4u);
  oracle.LinkLatencyMs(2, 3);  // 2 was evicted by 1's reinsertion? No: {1, 2}
  EXPECT_EQ(oracle.dijkstra_runs(), 4u);
}

TEST(PathOracleTest, ZeroCapacityClampsToOne) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 0);
  oracle.LinkLatencyMs(0, 1);
  oracle.LinkLatencyMs(0, 2);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
}

TEST(PathOracleTest, SymmetricOnUndirectedGraph) {
  // Latency-weighted shortest paths are symmetric for undirected links.
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 9));
  PathOracle oracle(g);
  for (const auto& [a, b] : std::vector<std::pair<AsId, AsId>>{
           {3, 250}, {17, 100}, {0, 299}}) {
    EXPECT_NEAR(oracle.LinkLatencyMs(a, b), oracle.LinkLatencyMs(b, a), 1e-3);
    EXPECT_EQ(oracle.Hops(a, b), oracle.Hops(b, a));
  }
}

TEST(PathOracleTest, PinnedVectorSurvivesEviction) {
  // Regression: with capacity 1, asking for a second source evicts the
  // first entry. A raw span into the evicted vector would dangle; the
  // pinned handle must keep the data alive and unchanged.
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, /*capacity=*/1);
  const PinnedVector<float> from0 = oracle.LatenciesFrom(0);
  ASSERT_TRUE(from0.valid());
  const float before = from0[2];

  oracle.LatenciesFrom(1);  // evicts source 0 from the size-1 LRU
  oracle.LatenciesFrom(2);  // and churns the cache once more
  EXPECT_EQ(oracle.dijkstra_runs(), 3u);

  ASSERT_TRUE(from0.valid());
  ASSERT_EQ(from0.size(), 4u);
  EXPECT_FLOAT_EQ(from0[2], before);
  EXPECT_FLOAT_EQ(from0[2], 2.0f);
  EXPECT_FLOAT_EQ(from0.span()[1], 1.0f);
}

TEST(PathOracleTest, ReFetchAfterEvictionRecomputes) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 1);
  const auto a = oracle.LatenciesFrom(0);
  oracle.LatenciesFrom(1);
  const auto b = oracle.LatenciesFrom(0);  // miss: recomputed
  EXPECT_EQ(oracle.dijkstra_runs(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(PathOracleTest, ShardsCacheIndependently) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 8, /*num_shards=*/2);
  EXPECT_EQ(oracle.num_shards(), 2u);
  oracle.LinkLatencyMs(0, 1, /*shard=*/0);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  // Same source on another shard is a miss there: shards share nothing.
  oracle.LinkLatencyMs(0, 1, /*shard=*/1);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
  // ...but hits stay local to each shard.
  oracle.LinkLatencyMs(0, 2, 0);
  oracle.LinkLatencyMs(0, 2, 1);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
}

TEST(PathOracleTest, ShardsAgreeOnValues) {
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 11));
  PathOracle oracle(g, 8, 3);
  for (const auto& [a, b] :
       std::vector<std::pair<AsId, AsId>>{{3, 250}, {17, 100}, {0, 299}}) {
    const double reference = oracle.RttMs(a, b, 0);
    EXPECT_DOUBLE_EQ(oracle.RttMs(a, b, 1), reference);
    EXPECT_DOUBLE_EQ(oracle.RttMs(a, b, 2), reference);
    EXPECT_EQ(oracle.Hops(a, b, 1), oracle.Hops(a, b, 0));
  }
}

TEST(PathOracleTest, SetNumShardsPreservesRunTotals) {
  const AsGraph g = MakeDiamond();
  PathOracle oracle(g, 8);
  oracle.LinkLatencyMs(0, 1);
  oracle.Hops(1, 2);
  oracle.SetNumShards(4);
  EXPECT_EQ(oracle.num_shards(), 4u);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  EXPECT_EQ(oracle.bfs_runs(), 1u);
  // Caches were dropped: the same query is a miss again.
  oracle.LinkLatencyMs(0, 1);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
}

TEST(PathOracleTest, TriangleInequalityOverSampledPairs) {
  const AsGraph g = GenerateInternetTopology(ScaledTopologyParams(300, 10));
  PathOracle oracle(g);
  // d(a, c) <= d(a, b) + d(b, c) for shortest-path metrics.
  for (AsId b : {5u, 50u, 150u}) {
    const double ab = oracle.LinkLatencyMs(7, b);
    const double bc = oracle.LinkLatencyMs(b, 200);
    const double ac = oracle.LinkLatencyMs(7, 200);
    EXPECT_LE(ac, ab + bc + 1e-3);
  }
}

}  // namespace
}  // namespace dmap
