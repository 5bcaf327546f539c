// Figure 4 + Table I: CDF and summary statistics of round-trip query
// response times for K = 1, 3, 5.
//
// Paper reference points (DIMES topology, 10^5 GUIDs, 10^6 lookups):
//   K=1: mean 74.5 ms, median 57.1 ms, 95th percentile 172.8 ms
//   K=5: mean 49.1 ms, median 40.5 ms, 95th percentile  86.1 ms
// The qualitative claims under reproduction: each added replica shifts the
// CDF left, K=5 roughly halves the tail vs K=1, and the CDF keeps a long
// tail driven by a few pathological stub ASs.
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

  std::printf("=== Figure 4 / Table I: query response time vs K ===\n");
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
  config.workload.num_guids = bench::Scaled(100'000, scale, 1000);
  config.workload.num_lookups = bench::Scaled(1'000'000, scale, 10'000);

  const auto sweep = RunResponseTimeSweep(env, {1, 3, 5}, config);

  TextTable table({"K", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
  for (const auto& [k, samples] : sweep) {
    bench::PrintSummaryRow(table, "K=" + std::to_string(k), samples);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper (Table I):  K=1 mean 74.5 / median 57.1 / p95 172.8\n"
      "                  K=5 mean 49.1 / median 40.5 / p95  86.1\n\n");

  for (const auto& [k, samples] : sweep) {
    bench::PrintCdf("K=" + std::to_string(k), samples);
  }
  obs.Finish();
  return 0;
}
