#include "sim/mobility_sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "obs/export.h"
#include "obs/metrics_registry.h"

namespace dmap {
namespace {

class MobilitySweepTest : public testing::Test {
 protected:
  MobilitySweepTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 81))) {}

  MobilityConfig Config() const {
    MobilityConfig c;
    c.mobility.num_hosts = 25;
    c.mobility.guids_per_host = 6;
    c.mobility.handoff_rate_hz = 1.0;
    c.mobility.horizon_s = 3.0;
    c.mobility.seed = 11;
    c.k = 3;
    c.batch_sizes = {1, 6};
    c.cache.capacity = 4096;
    c.cache.shards = 4;
    c.ttl_sweep_ms = {100.0, 5000.0};
    c.lookup_rate_hz = 500.0;
    return c;
  }

  SimEnvironment env_;
};

TEST_F(MobilitySweepTest, ResultIsIdenticalForEveryThreadCount) {
  MobilityConfig one = Config();
  one.threads = 1;
  MobilityConfig four = Config();
  four.threads = 4;
  const MobilityResult a = RunMobilitySweep(env_, one);
  const MobilityResult b = RunMobilitySweep(env_, four);

  ASSERT_EQ(a.batch_points.size(), b.batch_points.size());
  for (std::size_t i = 0; i < a.batch_points.size(); ++i) {
    const MobilityBatchPoint& x = a.batch_points[i];
    const MobilityBatchPoint& y = b.batch_points[i];
    EXPECT_EQ(x.batch_size, y.batch_size);
    EXPECT_EQ(x.handoffs, y.handoffs);
    EXPECT_EQ(x.guid_updates, y.guid_updates);
    EXPECT_EQ(x.waves, y.waves);
    EXPECT_EQ(x.batch_messages, y.batch_messages);
    EXPECT_EQ(x.singleton_messages, y.singleton_messages);
    EXPECT_DOUBLE_EQ(x.reduction, y.reduction);
    EXPECT_DOUBLE_EQ(x.mean_wave_latency_ms, y.mean_wave_latency_ms);
  }
  ASSERT_EQ(a.ttl_points.size(), b.ttl_points.size());
  for (std::size_t i = 0; i < a.ttl_points.size(); ++i) {
    const MobilityTtlPoint& x = a.ttl_points[i];
    const MobilityTtlPoint& y = b.ttl_points[i];
    EXPECT_DOUBLE_EQ(x.ttl_ms, y.ttl_ms);
    EXPECT_EQ(x.lookups, y.lookups);
    EXPECT_EQ(x.found, y.found);
    EXPECT_EQ(x.cache_hits, y.cache_hits);
    EXPECT_EQ(x.cache_misses, y.cache_misses);
    EXPECT_EQ(x.stale_served, y.stale_served);
    EXPECT_EQ(x.evictions, y.evictions);
    EXPECT_EQ(x.invalidations, y.invalidations);
    EXPECT_DOUBLE_EQ(x.hit_rate, y.hit_rate);
    EXPECT_DOUBLE_EQ(x.stale_fraction, y.stale_fraction);
    EXPECT_DOUBLE_EQ(x.mean_latency_ms, y.mean_latency_ms);
  }
}

TEST_F(MobilitySweepTest, BatchPanelInvariants) {
  const MobilityResult result = RunMobilitySweep(env_, Config());
  ASSERT_EQ(result.batch_points.size(), 2u);
  const MobilityBatchPoint& singleton = result.batch_points[0];
  const MobilityBatchPoint& batched = result.batch_points[1];
  // Same schedule replayed: handoff and update counts are batch-invariant.
  EXPECT_EQ(singleton.handoffs, batched.handoffs);
  EXPECT_EQ(singleton.guid_updates, batched.guid_updates);
  EXPECT_GT(singleton.handoffs, 0u);
  // Batch 1 degenerates to one wave per update.
  EXPECT_EQ(singleton.waves, singleton.guid_updates);
  EXPECT_LT(batched.waves, singleton.waves);
  // Coalescing never sends more messages than the singleton baseline.
  EXPECT_LE(batched.batch_messages, batched.singleton_messages);
  EXPECT_EQ(singleton.singleton_messages, batched.singleton_messages);
  EXPECT_GE(batched.reduction, singleton.reduction);
}

TEST_F(MobilitySweepTest, LongerTtlNeverLowersHitRate) {
  const MobilityResult result = RunMobilitySweep(env_, Config());
  ASSERT_EQ(result.ttl_points.size(), 2u);
  const MobilityTtlPoint& brief = result.ttl_points[0];
  const MobilityTtlPoint& lasting = result.ttl_points[1];
  EXPECT_EQ(brief.lookups, lasting.lookups);
  EXPECT_GT(brief.lookups, 0u);
  EXPECT_GE(lasting.hit_rate, brief.hit_rate);
  // Staleness can only appear on served hits.
  EXPECT_LE(brief.stale_served, brief.cache_hits);
  EXPECT_LE(lasting.stale_served, lasting.cache_hits);
}

TEST_F(MobilitySweepTest, MetricsMergeIsThreadCountIndependent) {
  MetricsRegistry one_reg, four_reg;
  MobilityConfig one = Config();
  one.threads = 1;
  one.metrics = &one_reg;
  MobilityConfig four = Config();
  four.threads = 4;
  four.metrics = &four_reg;
  (void)RunMobilitySweep(env_, one);
  (void)RunMobilitySweep(env_, four);
  // The stable export is what CI byte-diffs across thread counts.
  EXPECT_EQ(MetricsSummaryJson(one_reg.Snapshot()),
            MetricsSummaryJson(four_reg.Snapshot()));
}

// The batched handoff's message saving is a count, so it is asserted here
// rather than timed: a 12-AS gateway cluster (the regime the batch
// targets) whose hosts carry 16 GUIDs each, every handoff sent as one
// wave, needs at least 5x fewer wire messages than K singleton inserts per
// GUID. A gateway-cluster mobility sweep at --scale 0.05.
TEST(MobilityBatchFloorTest, BatchedHandoffsSendFiveTimesFewerMessages) {
  SimEnvironment cluster = BuildEnvironment(EnvironmentParams::Scaled(12));
  MobilityConfig config;
  config.mobility.num_hosts = 20;
  config.mobility.guids_per_host = 16;
  config.mobility.handoff_rate_hz = 1.0;
  config.mobility.horizon_s = 10.0;
  config.batch_sizes = {16};
  config.threads = 1;
  const MobilityResult result = RunMobilitySweep(cluster, config);
  ASSERT_EQ(result.batch_points.size(), 1u);
  const MobilityBatchPoint& point = result.batch_points[0];
  ASSERT_GT(point.handoffs, 0u);
  EXPECT_EQ(point.waves, point.handoffs);
  EXPECT_EQ(point.singleton_messages,
            point.guid_updates * std::uint64_t(config.k));
  EXPECT_GE(point.reduction, 5.0)
      << point.singleton_messages << " singleton vs " << point.batch_messages
      << " batched messages";
}

TEST_F(MobilitySweepTest, InvalidConfigThrows) {
  MobilityConfig bad = Config();
  bad.batch_sizes = {0};
  EXPECT_THROW(RunMobilitySweep(env_, bad), std::invalid_argument);

  MobilityConfig no_cache = Config();
  no_cache.cache.capacity = 0;  // TTL sweep requested but cache disabled
  EXPECT_THROW(RunMobilitySweep(env_, no_cache), std::invalid_argument);

  MobilityConfig no_rate = Config();
  no_rate.lookup_rate_hz = 0.0;
  EXPECT_THROW(RunMobilitySweep(env_, no_rate), std::invalid_argument);
}

}  // namespace
}  // namespace dmap
