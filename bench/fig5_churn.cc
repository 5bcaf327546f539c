// Figure 5: effect of BGP churn on query response times (K = 5).
//
// Paper reference points: at 5% churned prefixes the median moves from
// 40.5 ms to 41.3 ms while the 95th percentile jumps from 86.1 ms to
// 129.1 ms — churn hurts the tail, barely the median, because only the
// queries whose best replicas were displaced pay extra round trips.
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

  std::printf("=== Figure 5: response time under BGP churn (K=5) ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(26424, scale, 300)));

  ObservabilitySinks obs(sim);
  ResponseTimeConfig config;
  config.threads = sim.threads;
  config.shards = shards;
  config.metrics = obs.registry();
  config.tracer = obs.tracer();
  config.k = 5;
  config.workload.num_guids = bench::Scaled(100'000, scale, 1000);
  config.workload.num_lookups = bench::Scaled(300'000, scale, 10'000);

  const auto sweep = RunChurnSweep(env, {0.0, 0.05, 0.10}, config);

  TextTable table(
      {"churn", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
  for (const auto& [fraction, samples] : sweep) {
    bench::PrintSummaryRow(
        table, TextTable::FormatDouble(fraction * 100, 0) + "%", samples);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper: 0%% -> median 40.5 / p95 86.1; 5%% -> median 41.3 / p95 "
      "129.1\n\n");

  for (const auto& [fraction, samples] : sweep) {
    bench::PrintCdf(TextTable::FormatDouble(fraction * 100, 0) + "% churn",
                    samples);
  }
  obs.Finish();
  return 0;
}
