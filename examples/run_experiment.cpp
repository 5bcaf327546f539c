// Config-driven experiment runner: the batch interface for users who want
// to run their own parameter studies without writing C++.
//
//   ./build/examples/run_experiment <config-file>
//   ./build/examples/run_experiment --print-defaults
//
// Every key is optional; --print-defaults prints each one with its default
// and range, as a config this runner accepts. `experiment` is one of
// response_time | churn | load_balance | analytical | baselines | staleness
// | offered_load. A key out of range fails naming the key, and an unknown
// key exits 2, before any compute.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include "analysis/jellyfish_model.h"
#include "common/config.h"
#include "obs/export.h"
#include "sim/experiments.h"
#include "sim/offered_load.h"
#include "sim/replication.h"
#include "sim/staleness.h"
#include "topo/io.h"

namespace {

using namespace dmap;

int Run(const Config& config, bool print_defaults) {
  const std::string experiment = config.GetString("experiment",
                                                  "response_time");
  const std::set<std::string> experiments = {
      "response_time", "churn",     "load_balance", "analytical",
      "baselines",     "staleness", "offered_load"};
  if (!experiments.contains(experiment)) {
    std::fprintf(stderr, "unknown experiment '%s'\n", experiment.c_str());
    return 2;
  }

  // Counts are bounded where they are read: a negative or overflowing value
  // must not wrap into a huge allocation or loop.
  const auto ases =
      config.GetInt<std::uint32_t>("ases", 8000, 2, kMaxTopologyNodes);
  EnvironmentParams env_params =
      EnvironmentParams::Scaled(ases, config.GetInt<std::uint64_t>("seed", 42));
  env_params.topology.geographic = config.GetBool("geographic", false);

  const SimConfig sim = SimConfig::FromConfig(config);

  ResponseTimeConfig rt;
  rt.threads = sim.threads;
  rt.shards = SimConfig::Shards(config);
  rt.workload.num_guids =
      config.GetInt<std::uint64_t>("guids", 20'000, 1, 1'000'000'000);
  rt.workload.num_lookups =
      config.GetInt<std::uint64_t>("lookups", 100'000, 1, 1'000'000'000);
  rt.workload.seed = config.GetInt<std::uint64_t>("workload_seed", 1);
  rt.local_replica = config.GetBool("local_replica", true);
  rt.serving = ServingConfig::FromOption(config);

  std::vector<int> ks;
  for (const std::int64_t k : config.GetIntList("ks", {1, 3, 5}, 1, 256)) {
    ks.push_back(int(k));
  }
  const std::vector<double> churn_fractions =
      config.GetDoubleList("churn_fractions", {0.0, 0.05, 0.10}, 0.0, 1.0);
  const int replications = config.GetInt("replications", 1, 1, 1000);
  const std::string topology_file = config.GetString("topology_file", "");
  const std::vector<double> move_intervals =
      config.GetDoubleList("move_intervals", {300, 60, 20, 5},
                           Config::kMinPositive, Config::kMaxFinite);
  const std::vector<double> offered_rates =
      config.GetDoubleList("offered_rates", {500, 1000, 2000, 4000},
                           Config::kMinPositive, Config::kMaxFinite);
  const double horizon_s = config.GetDouble(
      "horizon_s", 5.0, Config::kMinPositive, Config::kMaxFinite);

  config.FinishReading(print_defaults);

  // Observability sinks: exports are bit-identical for every `threads`
  // value (execution-dependent counters are excluded by default).
  ObservabilitySinks obs(sim);
  rt.metrics = obs.registry();
  rt.tracer = obs.tracer();

  if (experiment == "analytical") {
    TextTable table({"K", "present (ms)", "medium-term (ms)",
                     "long-term (ms)"});
    for (const int k : ks) {
      table.AddRow(
          {std::to_string(k),
           TextTable::FormatDouble(
               PresentInternetModel().ResponseTimeUpperBoundMs(k)),
           TextTable::FormatDouble(
               MediumTermInternetModel().ResponseTimeUpperBoundMs(k)),
           TextTable::FormatDouble(
               LongTermInternetModel().ResponseTimeUpperBoundMs(k))});
    }
    std::printf("%s", table.Render().c_str());
    obs.Finish();
    return 0;
  }

  if (experiment == "response_time" && replications > 1) {
    // Multi-seed replication: rebuild topology + workload per seed and
    // report mean response time with a 95% CI per K.
    TextTable table({"K", "runs", "mean of means (ms)", "95% CI (ms)"});
    for (const int k : ks) {
      const ReplicatedResult r = RunReplicated(
          replications, env_params.topology.seed,
          [&](std::uint64_t seed) {
            EnvironmentParams p = env_params;
            p.topology.seed = seed;
            p.prefixes.seed = seed ^ 0xabcdef12345ULL;
            SimEnvironment env = BuildEnvironment(p);
            ResponseTimeConfig c = rt;
            c.k = k;
            c.workload.seed = seed + 1;
            return RunResponseTimeExperiment(env, c).mean();
          });
      table.AddRow({std::to_string(k), std::to_string(replications),
                    TextTable::FormatDouble(r.mean),
                    "+-" + TextTable::FormatDouble(r.ci95_half, 2)});
    }
    std::printf("%s", table.Render().c_str());
    obs.Finish();
    return 0;
  }

  std::printf("building environment: %u ASs (seed %llu%s)...\n",
              env_params.topology.num_nodes,
              (unsigned long long)env_params.topology.seed,
              env_params.topology.geographic ? ", geographic" : "");
  SimEnvironment env = [&] {
    // Optional topology cache: load the AS graph from disk when present,
    // generate-and-save otherwise, so repeated studies share the network.
    if (topology_file.empty()) return BuildEnvironment(env_params);
    if (std::ifstream probe(topology_file); probe.good()) {
      std::printf("loading topology from %s\n", topology_file.c_str());
      AsGraph graph = LoadTopologyFromFile(topology_file);
      // The prefix table is generated for `ases` owners, so a graph of any
      // other size would leave owners outside it.
      if (graph.num_nodes() != ases) {
        config.Reject("topology_file", topology_file,
                      "holds " + std::to_string(graph.num_nodes()) +
                          " ASs, but ases = " + std::to_string(ases));
      }
      return SimEnvironment{std::move(graph),
                            GeneratePrefixTable(env_params.prefixes),
                            nullptr};
    }
    SimEnvironment fresh = BuildEnvironment(env_params);
    SaveTopologyToFile(fresh.graph, topology_file);
    std::printf("saved topology to %s\n", topology_file.c_str());
    return fresh;
  }();

  if (experiment == "response_time") {
    const auto sweep = RunResponseTimeSweep(env, ks, rt);
    TextTable table({"K", "lookups", "mean (ms)", "median (ms)",
                     "p95 (ms)"});
    for (const auto& [k, samples] : sweep) {
      const ResponseTimeSummary s = Summarize(samples);
      table.AddRow({std::to_string(k), std::to_string(s.count),
                    TextTable::FormatDouble(s.mean_ms),
                    TextTable::FormatDouble(s.median_ms),
                    TextTable::FormatDouble(s.p95_ms)});
    }
    std::printf("%s", table.Render().c_str());
  } else if (experiment == "churn") {
    ChurnExperimentConfig churn;
    churn.base = rt;
    churn.base.k = ks.empty() ? 5 : ks.back();
    const auto sweep = RunChurnSweep(env, churn_fractions, churn);
    TextTable table({"churn", "lookups", "mean (ms)", "median (ms)",
                     "p95 (ms)"});
    for (const auto& [fraction, samples] : sweep) {
      const ResponseTimeSummary s = Summarize(samples);
      table.AddRow({TextTable::FormatDouble(fraction * 100, 1) + "%",
                    std::to_string(s.count),
                    TextTable::FormatDouble(s.mean_ms),
                    TextTable::FormatDouble(s.median_ms),
                    TextTable::FormatDouble(s.p95_ms)});
    }
    std::printf("%s", table.Render().c_str());
  } else if (experiment == "load_balance") {
    LoadBalanceConfig lb;
    lb.threads = sim.threads;
    lb.metrics = rt.metrics;
    lb.k = ks.empty() ? 5 : ks.back();
    lb.num_guids = rt.workload.num_guids;
    const LoadBalanceResult result = RunLoadBalanceExperiment(env, lb);
    std::printf("NLR over %zu announcing ASs: median %.3f, "
                "in [0.4, 1.6]: %.1f%%, deputy fallbacks: %llu\n",
                result.nlr.count(), result.nlr.Quantile(0.5),
                100 * FractionWithin(result.nlr, 0.4, 1.6),
                (unsigned long long)result.deputy_fallbacks);
  } else if (experiment == "staleness") {
    TextTable table({"move interval", "lookups", "stale %", "rechecks",
                     "t.fresh p95 (ms)"});
    for (const double interval_s : move_intervals) {
      StalenessConfig sc;
      sc.num_hosts = std::uint32_t(rt.workload.num_guids);
      sc.mean_move_interval_s = interval_s;
      sc.k = ks.empty() ? 5 : ks.back();
      sc.metrics = rt.metrics;
      sc.tracer = rt.tracer;
      const StalenessReport r = RunStalenessExperiment(env, sc);
      table.AddRow(
          {TextTable::FormatDouble(interval_s, 0) + " s",
           std::to_string(r.lookups),
           TextTable::FormatDouble(100 * r.stale_fraction, 3) + "%",
           r.rechecks.count() == 0
               ? "-"
               : TextTable::FormatDouble(r.rechecks.mean(), 2),
           r.time_to_fresh_ms.count() == 0
               ? "-"
               : TextTable::FormatDouble(
                     r.time_to_fresh_ms.Quantile(0.95))});
    }
    std::printf("%s", table.Render().c_str());
  } else if (experiment == "offered_load") {
    OfferedLoadConfig ol;
    ol.base = rt;
    ol.base.k = ks.empty() ? 5 : ks.back();
    if (!ol.base.serving.enabled) {
      // No `serving` key: a sensible finite default, matching the fig8
      // bench — an M/M/1-per-AS with a 64-deep queue.
      ol.base.serving.enabled = true;
      ol.base.serving.model = ServiceModel::kExponential;
      ol.base.serving.service_rate_per_s = 500.0;
    }
    ol.arrivals.horizon_s = horizon_s;
    ol.offered_rates_per_s = offered_rates;
    const OfferedLoadResult result = RunOfferedLoadSweep(env, ol);
    TextTable table({"offered/s", "lookups", "goodput/s", "p50 (ms)",
                     "p99 (ms)", "p999 (ms)", "qdelay (ms)", "shed",
                     "rho*"});
    for (const OfferedLoadPoint& p : result.points) {
      table.AddRow({TextTable::FormatDouble(p.offered_per_s, 0),
                    std::to_string(p.lookups),
                    TextTable::FormatDouble(p.goodput_per_s, 0),
                    TextTable::FormatDouble(p.p50_ms),
                    TextTable::FormatDouble(p.p99_ms),
                    TextTable::FormatDouble(p.p999_ms),
                    TextTable::FormatDouble(p.mean_queue_delay_ms),
                    std::to_string(p.tier_shed),
                    TextTable::FormatDouble(p.hottest_mm1.utilization)});
    }
    std::printf("%s", table.Render().c_str());
    std::printf("analytic saturation %.0f/s, measured knee %s\n",
                result.analytic_saturation_per_s,
                result.measured_knee_per_s > 0
                    ? (TextTable::FormatDouble(result.measured_knee_per_s,
                                               0) +
                       "/s")
                          .c_str()
                    : "(none)");
  } else {  // baselines
    const auto rows = RunBaselineComparison(env, rt, rt.workload.num_guids / 10);
    TextTable table({"scheme", "lookup mean (ms)", "lookup p95 (ms)",
                     "update mean (ms)"});
    for (const auto& row : rows) {
      table.AddRow({row.scheme,
                    TextTable::FormatDouble(row.lookup.mean_ms),
                    TextTable::FormatDouble(row.lookup.p95_ms),
                    TextTable::FormatDouble(row.update.mean_ms)});
    }
    std::printf("%s", table.Render().c_str());
  }
  obs.Finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool print_defaults =
      argc == 2 && std::strcmp(argv[1], "--print-defaults") == 0;
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <config-file> | --print-defaults\n", argv[0]);
    return 2;
  }
  try {
    return Run(print_defaults ? dmap::Config()
                              : dmap::Config::ParseFile(argv[1]),
               print_defaults);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
