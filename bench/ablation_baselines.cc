// Extension experiment: DMap vs the related-work baselines of Sections II-B
// and VI, under the Figure 4 workload.
//
// Expected shape: DMap's single-overlay-hop lookups beat the multi-hop
// Chord-style DHT by a large factor (the paper cites ~900 ms for the
// DHT-MAP scheme vs <100 ms for DMap); the home agent is competitive only
// when queriers happen to be near the home AS and degrades with mobility;
// the central directory concentrates all load on one AS.
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "sim/experiments.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const int shards = SimConfig::Shards(args);
  bench::CheckArgs(args);

  std::printf("=== Ablation: DMap vs baseline resolution schemes ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(8000, scale, 300)));

  ObservabilitySinks obs(sim);
  ResponseTimeConfig config;
  config.threads = sim.threads;
  config.shards = shards;
  config.metrics = obs.registry();
  config.tracer = obs.tracer();
  config.k = 5;
  config.workload.num_guids = bench::Scaled(20'000, scale, 1000);
  config.workload.num_lookups = bench::Scaled(100'000, scale, 5000);
  const std::uint64_t moves = bench::Scaled(2'000, scale, 100);

  const auto rows = RunBaselineComparison(env, config, moves);

  TextTable lookup_table(
      {"scheme", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
  TextTable update_table(
      {"scheme", "updates", "mean (ms)", "median (ms)", "p95 (ms)"});
  for (const auto& row : rows) {
    lookup_table.AddRow(
        {row.scheme, std::to_string(row.lookup.count),
         TextTable::FormatDouble(row.lookup.mean_ms),
         TextTable::FormatDouble(row.lookup.median_ms),
         TextTable::FormatDouble(row.lookup.p95_ms)});
    update_table.AddRow(
        {row.scheme, std::to_string(row.update.count),
         TextTable::FormatDouble(row.update.mean_ms),
         TextTable::FormatDouble(row.update.median_ms),
         TextTable::FormatDouble(row.update.p95_ms)});
  }
  std::printf("lookup latency:\n%s\n", lookup_table.Render().c_str());
  std::printf("update latency (mobility events):\n%s\n",
              update_table.Render().c_str());
  std::printf(
      "expected shape: dmap << chord-dht (single overlay hop vs O(log N));\n"
      "the paper cites ~900 ms for DHT-based mapping vs <100 ms for DMap\n");
  obs.Finish();
  return 0;
}
