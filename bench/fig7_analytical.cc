// Figure 7: analytical upper bound on the average query response time vs
// the number of replicas K, for the present, medium-term (5-10 yr) and
// long-term (25-30 yr) Internet models (Section V, c0 = 10.6, c1 = 8.3).
//
// Paper reference points: all three curves decrease in K with rapidly
// diminishing returns beyond a few replicas; flatter future topologies sit
// strictly below the present-day curve; values span roughly 50-100 ms.
//
// As a cross-check, the same bound is also evaluated on the layer ratios
// measured from our own generated topology, with (c0, c1) re-fitted against
// simulated mean response times.
#include <cstdio>

#include "analysis/jellyfish_model.h"
#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "sim/experiments.h"
#include "topo/jellyfish.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const int shards = SimConfig::Shards(args);
  bench::CheckArgs(args);

  std::printf("=== Figure 7: analytical response-time upper bound vs K ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  const LayerModel present = PresentInternetModel();
  const LayerModel medium = MediumTermInternetModel();
  const LayerModel longterm = LongTermInternetModel();

  TextTable table({"K", "present (ms)", "medium-term (ms)",
                   "long-term (ms)"});
  for (int k = 1; k <= 20; ++k) {
    table.AddRow({std::to_string(k),
                  TextTable::FormatDouble(present.ResponseTimeUpperBoundMs(k)),
                  TextTable::FormatDouble(medium.ResponseTimeUpperBoundMs(k)),
                  TextTable::FormatDouble(
                      longterm.ResponseTimeUpperBoundMs(k))});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper: curves decrease with diminishing returns beyond a few\n"
      "replicas; future (flatter) Internet models sit strictly lower\n\n");

  // Cross-check on our generated topology: decompose, fit (c0, c1) against
  // simulated means for K = 1..5, and evaluate the bound.
  std::printf("--- cross-check on generated topology ---\n");
  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(8000, scale, 300)));
  const LayerModel measured =
      LayerModel::FromDecomposition(DecomposeJellyfish(env.graph));
  std::printf("measured layer ratios:");
  for (const double r : measured.ratios()) std::printf(" %.4f", r);
  std::printf("\n");

  ObservabilitySinks obs(sim);
  ResponseTimeConfig config;
  config.threads = sim.threads;
  config.shards = shards;
  config.metrics = obs.registry();
  config.tracer = obs.tracer();
  config.local_replica = false;  // the model has no local-replica term
  config.workload.num_guids = bench::Scaled(20'000, scale, 1000);
  config.workload.num_lookups = bench::Scaled(100'000, scale, 5000);
  const std::vector<int> ks{1, 2, 3, 4, 5};
  const auto sweep = RunResponseTimeSweep(env, ks, config);

  std::vector<double> xs, ys;
  for (const auto& [k, samples] : sweep) {
    xs.push_back(measured.ExpectedMinDistanceUpperBound(k));
    ys.push_back(samples.mean());
  }
  const auto [c0, c1] = FitLinear(xs, ys);
  std::printf("fitted c0=%.2f c1=%.2f (paper: 10.6, 8.3)\n\n", c0, c1);

  TextTable cross({"K", "E[min dist] bound", "bound (ms)",
                   "simulated mean (ms)"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    cross.AddRow({std::to_string(ks[i]), TextTable::FormatDouble(xs[i], 3),
                  TextTable::FormatDouble(
                      measured.ResponseTimeUpperBoundMs(ks[i], c0, c1)),
                  TextTable::FormatDouble(ys[i])});
  }
  std::printf("%s", cross.Render().c_str());
  obs.Finish();
  return 0;
}
