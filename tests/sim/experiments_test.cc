#include "sim/experiments.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hole_resolver.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "sim/metrics.h"

namespace dmap {
namespace {

class ExperimentsTest : public testing::Test {
 protected:
  ExperimentsTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(400, 23))) {}

  ResponseTimeConfig SmallConfig(int k) {
    ResponseTimeConfig c;
    c.k = k;
    c.workload.num_guids = 500;
    c.workload.num_lookups = 3000;
    c.workload.seed = 5;
    return c;
  }

  SimEnvironment env_;
};

TEST_F(ExperimentsTest, ResponseTimeSamplesEveryLookup) {
  const SampleSet samples = RunResponseTimeExperiment(env_, SmallConfig(3));
  EXPECT_EQ(samples.count(), 3000u);
  EXPECT_GT(samples.min(), 0.0);
}

TEST_F(ExperimentsTest, MoreReplicasReduceTailLatency) {
  // Figure 4's headline: the K = 5 CDF dominates K = 1.
  const SampleSet k1 = RunResponseTimeExperiment(env_, SmallConfig(1));
  const SampleSet k5 = RunResponseTimeExperiment(env_, SmallConfig(5));
  EXPECT_LT(k5.Quantile(0.95), k1.Quantile(0.95));
  EXPECT_LT(k5.mean(), k1.mean());
  EXPECT_LT(k5.Quantile(0.5), k1.Quantile(0.5));
}

TEST_F(ExperimentsTest, ChurnZeroMatchesBaseline) {
  const ResponseTimeConfig config = SmallConfig(5);
  const SampleSet churned = RunChurnSweep(env_, {0.0}, config)[0].second;
  const SampleSet baseline = RunResponseTimeExperiment(env_, config);
  ASSERT_EQ(churned.count(), baseline.count());
  EXPECT_NEAR(churned.mean(), baseline.mean(), 1e-9);
}

TEST_F(ExperimentsTest, ChurnInflatesTail) {
  // Figure 5: 5-10% churn grows the 95th percentile while the median stays
  // nearly unchanged.
  const ResponseTimeConfig config = SmallConfig(5);
  const SampleSet churned = RunChurnSweep(env_, {0.10}, config)[0].second;
  const SampleSet baseline = RunResponseTimeExperiment(env_, config);
  EXPECT_GT(churned.Quantile(0.95), baseline.Quantile(0.95));
  EXPECT_NEAR(churned.Quantile(0.5), baseline.Quantile(0.5),
              baseline.Quantile(0.5) * 0.35);
}

TEST_F(ExperimentsTest, LoadBalanceNlrCentersAroundOne) {
  LoadBalanceConfig config;
  config.num_guids = 50'000;
  const LoadBalanceResult result = RunLoadBalanceExperiment(env_, config);
  EXPECT_GT(result.nlr.count(), 300u);  // nearly every AS announces
  const double median = result.nlr.Quantile(0.5);
  EXPECT_GT(median, 0.7);
  EXPECT_LT(median, 1.6);
  // Hash evaluations reflect the ~1/announced_fraction geometric mean.
  const double evals_per_resolution =
      double(result.total_hash_evals) /
      double(config.num_guids * std::uint64_t(config.k));
  EXPECT_GT(evals_per_resolution, 1.5);
  EXPECT_LT(evals_per_resolution, 2.5);
}

TEST_F(ExperimentsTest, LoadBalanceFastPathChangesNothing) {
  // The experiment probes a DIR-24-8 snapshot; a resolver never refreshed
  // walks the trie. Tallying the experiment's GUID stream through the trie
  // must reproduce its result exactly.
  LoadBalanceConfig config;
  config.num_guids = 20'000;
  const LoadBalanceResult fast = RunLoadBalanceExperiment(env_, config);

  const GuidHashFamily hashes(config.k, ProtocolOptions{}.hash_seed);
  const HoleResolver trie(hashes, env_.table, config.max_hashes);
  std::vector<std::uint64_t> counts(env_.graph.num_nodes(), 0);
  LoadBalanceResult slow;
  for (std::uint64_t i = 0; i < config.num_guids; ++i) {
    // The experiment's GUID stream (see LoadBalanceConfig).
    const Guid guid = Guid::FromSequence(i ^ (11 * 0x9e3779b97f4a7c15ULL));
    for (const HostResolution& r : trie.ResolveAll(guid)) {
      ++counts[r.host];
      slow.total_hash_evals += std::uint64_t(r.hash_count);
      if (r.used_nearest) ++slow.deputy_fallbacks;
    }
  }
  slow.nlr = ComputeNlr(counts, env_.table);
  EXPECT_EQ(fast.deputy_fallbacks, slow.deputy_fallbacks);
  EXPECT_EQ(fast.total_hash_evals, slow.total_hash_evals);
  ASSERT_EQ(fast.nlr.count(), slow.nlr.count());
  EXPECT_DOUBLE_EQ(fast.nlr.mean(), slow.nlr.mean());
  EXPECT_DOUBLE_EQ(fast.nlr.Quantile(0.5), slow.nlr.Quantile(0.5));
}

TEST_F(ExperimentsTest, LoadBalanceSharpensWithMoreGuids) {
  // Figure 6: the NLR CDF tightens around 1 as GUID count grows.
  LoadBalanceConfig small, large;
  small.num_guids = 5'000;
  large.num_guids = 200'000;
  const auto small_result = RunLoadBalanceExperiment(env_, small);
  const auto large_result = RunLoadBalanceExperiment(env_, large);
  const double small_spread = small_result.nlr.Quantile(0.9) -
                              small_result.nlr.Quantile(0.1);
  const double large_spread = large_result.nlr.Quantile(0.9) -
                              large_result.nlr.Quantile(0.1);
  EXPECT_LT(large_spread, small_spread);
}

TEST_F(ExperimentsTest, SweepAgreesWithIndependentRuns) {
  // The one-pass multi-K sweep must reproduce each independent run exactly
  // (same seeds, hash-prefix property).
  const auto sweep = RunResponseTimeSweep(env_, {1, 3, 5}, SmallConfig(5));
  ASSERT_EQ(sweep.size(), 3u);
  for (const auto& [k, samples] : sweep) {
    const SampleSet independent =
        RunResponseTimeExperiment(env_, SmallConfig(k));
    ASSERT_EQ(samples.count(), independent.count()) << "k=" << k;
    EXPECT_NEAR(samples.mean(), independent.mean(), 1e-9) << "k=" << k;
    EXPECT_NEAR(samples.Quantile(0.95), independent.Quantile(0.95), 1e-9)
        << "k=" << k;
  }
}

TEST_F(ExperimentsTest, ChurnSweepAgreesWithIndependentRuns) {
  // Sharing one placement and one pass over the lookups across fractions
  // changes no sample: each fraction's curve is the single-fraction sweep's.
  const ResponseTimeConfig config = SmallConfig(5);
  const auto sweep = RunChurnSweep(env_, {0.0, 0.10}, config);
  ASSERT_EQ(sweep.size(), 2u);
  for (const auto& [fraction, samples] : sweep) {
    const auto single = RunChurnSweep(env_, {fraction}, config);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].first, fraction);
    EXPECT_EQ(samples.samples(), single[0].second.samples()) << fraction;
  }
}

TEST_F(ExperimentsTest, ResponseTimeIsBitIdenticalAcrossThreadCounts) {
  // The parallel harness partitions by source AS and merges per-partition
  // sample sets in partition order — the sample sequence must match the
  // serial run bit-for-bit for any worker count, including one that does
  // not divide the partition count.
  ResponseTimeConfig serial = SmallConfig(3);
  serial.threads = 1;
  const SampleSet reference = RunResponseTimeExperiment(env_, serial);
  for (const unsigned threads : {2u, 7u}) {
    ResponseTimeConfig parallel = SmallConfig(3);
    parallel.threads = threads;
    const SampleSet run = RunResponseTimeExperiment(env_, parallel);
    // Raw insertion-order samples first (Quantile sorts in place).
    EXPECT_EQ(run.samples(), reference.samples()) << "threads=" << threads;
  }
}

TEST_F(ExperimentsTest, SweepIsBitIdenticalAcrossThreadCounts) {
  const std::vector<int> ks{1, 3, 5};
  ResponseTimeConfig serial = SmallConfig(5);
  serial.threads = 1;
  const auto reference = RunResponseTimeSweep(env_, ks, serial);
  for (const unsigned threads : {2u, 7u}) {
    ResponseTimeConfig parallel = SmallConfig(5);
    parallel.threads = threads;
    const auto sweep = RunResponseTimeSweep(env_, ks, parallel);
    ASSERT_EQ(sweep.size(), reference.size()) << "threads=" << threads;
    for (std::size_t j = 0; j < sweep.size(); ++j) {
      EXPECT_EQ(sweep[j].first, reference[j].first);
      EXPECT_EQ(sweep[j].second.samples(), reference[j].second.samples())
          << "threads=" << threads << " k=" << sweep[j].first;
    }
  }
  // Every quantile the figures report is therefore identical too.
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    ResponseTimeConfig two = SmallConfig(5);
    two.threads = 2;
    const auto sweep = RunResponseTimeSweep(env_, ks, two);
    for (std::size_t j = 0; j < sweep.size(); ++j) {
      EXPECT_DOUBLE_EQ(sweep[j].second.Quantile(q),
                       reference[j].second.Quantile(q));
    }
  }
}

TEST_F(ExperimentsTest, ChurnSweepIsBitIdenticalAcrossThreadCounts) {
  ResponseTimeConfig serial = SmallConfig(5);
  serial.threads = 1;
  const auto reference = RunChurnSweep(env_, {0.0, 0.10}, serial);
  for (const unsigned threads : {2u, 7u}) {
    ResponseTimeConfig parallel = SmallConfig(5);
    parallel.threads = threads;
    const auto sweep = RunChurnSweep(env_, {0.0, 0.10}, parallel);
    ASSERT_EQ(sweep.size(), reference.size());
    for (std::size_t v = 0; v < sweep.size(); ++v) {
      EXPECT_EQ(sweep[v].second.samples(), reference[v].second.samples())
          << "threads=" << threads << " churn=" << sweep[v].first;
    }
  }
}

TEST_F(ExperimentsTest, LoadBalanceIsBitIdenticalAcrossThreadCounts) {
  // Fig 6's NLR pass tallies integer per-AS counts, so per-worker sums are
  // exactly order-independent; the derived NLR set must match bit-for-bit.
  LoadBalanceConfig serial;
  serial.num_guids = 30'000;
  serial.threads = 1;
  const LoadBalanceResult reference = RunLoadBalanceExperiment(env_, serial);
  for (const unsigned threads : {2u, 7u}) {
    LoadBalanceConfig parallel;
    parallel.num_guids = 30'000;
    parallel.threads = threads;
    const LoadBalanceResult run = RunLoadBalanceExperiment(env_, parallel);
    EXPECT_EQ(run.deputy_fallbacks, reference.deputy_fallbacks)
        << "threads=" << threads;
    EXPECT_EQ(run.total_hash_evals, reference.total_hash_evals)
        << "threads=" << threads;
    EXPECT_EQ(run.nlr.samples(), reference.nlr.samples())
        << "threads=" << threads;
  }
}

TEST_F(ExperimentsTest, MetricsExportIsByteIdenticalAcrossThreadCounts) {
  // The CI determinism gate in miniature: the default metrics export and
  // the drained op trace must be byte-identical for every worker count.
  auto run = [&](unsigned threads) {
    MetricsRegistry registry;
    ProbeTracer tracer(1, 3);
    ResponseTimeConfig config = SmallConfig(3);
    config.threads = threads;
    config.metrics = &registry;
    config.tracer = &tracer;
    RunResponseTimeSweep(env_, {1, 3}, config);
    RunChurnSweep(env_, {0.05}, config);
    return std::make_pair(MetricsSummaryJson(registry.Snapshot()),
                          OpTraceCsv(tracer.Drain()));
  };
  const auto [metrics1, trace1] = run(1);
  EXPECT_GT(trace1.size(), 100u);  // churn lookups were actually traced
  for (const unsigned threads : {2u, 7u}) {
    const auto [metrics, trace] = run(threads);
    EXPECT_EQ(metrics, metrics1) << "threads=" << threads;
    EXPECT_EQ(trace, trace1) << "threads=" << threads;
  }
}

TEST_F(ExperimentsTest, ResponseTimeIsBitIdenticalAcrossShardCounts) {
  // The sharding analogue of the thread-count gate: for every shards x
  // threads combination, the sample sequence matches the single-shard
  // serial run bit-for-bit.
  ResponseTimeConfig reference_config = SmallConfig(3);
  reference_config.threads = 1;
  reference_config.shards = 1;
  const SampleSet reference =
      RunResponseTimeExperiment(env_, reference_config);
  for (const int shards : {1, 4, 16}) {
    for (const unsigned threads : {1u, 7u}) {
      ResponseTimeConfig config = SmallConfig(3);
      config.threads = threads;
      config.shards = shards;
      const SampleSet run = RunResponseTimeExperiment(env_, config);
      EXPECT_EQ(run.samples(), reference.samples())
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST_F(ExperimentsTest, MetricsExportIsByteIdenticalAcrossShardCounts) {
  // The CI --shards byte-diff job in miniature: default metrics export and
  // op trace for shards {1, 4, 16} x threads {1, 7} must all match.
  auto run = [&](int shards, unsigned threads) {
    MetricsRegistry registry;
    ProbeTracer tracer(1, 3);
    ResponseTimeConfig config = SmallConfig(3);
    config.threads = threads;
    config.shards = shards;
    config.metrics = &registry;
    config.tracer = &tracer;
    RunResponseTimeExperiment(env_, config);
    return std::make_pair(MetricsSummaryJson(registry.Snapshot()),
                          OpTraceCsv(tracer.Drain()));
  };
  const auto [metrics1, trace1] = run(1, 1);
  for (const int shards : {4, 16}) {
    for (const unsigned threads : {1u, 7u}) {
      const auto [metrics, trace] = run(shards, threads);
      EXPECT_EQ(metrics, metrics1)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(trace, trace1)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST_F(ExperimentsTest, MetricsSnapshotCountsWorkload) {
  MetricsRegistry registry;
  ResponseTimeConfig config = SmallConfig(3);
  config.metrics = &registry;
  RunChurnSweep(env_, {0.0}, config);
  std::uint64_t inserts = 0, lookups = 0;
  for (const CounterSnapshot& c : registry.Snapshot().counters) {
    if (c.name == "dmap.inserts") inserts = c.value;
    if (c.name == "dmap.lookups") lookups = c.value;
  }
  EXPECT_EQ(inserts, config.workload.num_guids);
  EXPECT_EQ(lookups, config.workload.num_lookups);
}

TEST_F(ExperimentsTest, BaselineComparisonOrdersSchemes) {
  ResponseTimeConfig config = SmallConfig(5);
  config.workload.num_lookups = 1000;
  const auto rows = RunBaselineComparison(env_, config, 200);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].scheme, "dmap-k5");
  EXPECT_EQ(rows[1].scheme, "chord-dht");

  // DMap's single-overlay-hop lookups beat the multi-hop DHT — the paper's
  // central comparative claim (Sections II-B, VI).
  EXPECT_LT(rows[0].lookup.mean_ms, rows[1].lookup.mean_ms / 2);
  for (const auto& row : rows) {
    EXPECT_EQ(row.lookup.count, 1000u) << row.scheme;
    EXPECT_EQ(row.update.count, 200u) << row.scheme;
    EXPECT_GT(row.lookup.mean_ms, 0.0) << row.scheme;
  }
}

}  // namespace
}  // namespace dmap
