// Figure 6: CDF of the Normalized Load Ratio (NLR) per AS for 10^5, 10^6
// and 10^7 GUIDs, K = 5.
//
// Paper reference points: at 10^7 GUIDs 93% of ASs fall in NLR [0.4, 1.6];
// the CDF sharpens around 1 as the GUID count grows; the median NLR is
// slightly above 1 (1.16) because deputy-AS traffic from IP holes adds load
// on top of each AS's fair share.
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "sim/experiments.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  bench::CheckArgs(args);

  std::printf("=== Figure 6: Normalized Load Ratio per AS (K=5) ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  const SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(26424, scale, 300)));

  ObservabilitySinks obs(sim);
  TextTable table({"GUIDs", "ASs", "median NLR", "in [0.4,1.6]",
                   "deputy fallbacks", "hash evals/resolve"});
  std::vector<std::pair<std::uint64_t, LoadBalanceResult>> runs;
  for (const std::uint64_t guids :
       {bench::Scaled(100'000, scale, 1000),
        bench::Scaled(1'000'000, scale, 10'000),
        bench::Scaled(10'000'000, scale, 100'000)}) {
    LoadBalanceConfig config;
    config.threads = sim.threads;
    config.metrics = obs.registry();
    config.num_guids = guids;
    LoadBalanceResult result = RunLoadBalanceExperiment(env, config);
    const double evals =
        double(result.total_hash_evals) / double(guids * 5);
    table.AddRow({std::to_string(guids),
                  std::to_string(result.nlr.count()),
                  TextTable::FormatDouble(result.nlr.Quantile(0.5), 3),
                  TextTable::FormatDouble(
                      100 * FractionWithin(result.nlr, 0.4, 1.6), 1) +
                      "%",
                  std::to_string(result.deputy_fallbacks),
                  TextTable::FormatDouble(evals, 2)});
    runs.emplace_back(guids, std::move(result));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper: 10^7 GUIDs -> 93%% of ASs in [0.4, 1.6], median NLR 1.16,\n"
      "       CDF sharpens around 1 as GUIDs grow\n\n");

  for (const auto& [guids, result] : runs) {
    bench::PrintCdfLinear(std::to_string(guids) + " GUIDs", result.nlr, 16,
                          "NLR");
  }
  obs.Finish();
  return 0;
}
