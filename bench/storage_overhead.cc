// Section IV-A: storage and update-traffic overhead.
//
// Paper reference points (5 billion GUIDs, K = 5, 352-bit entries,
// 100 updates/GUID/day):
//   * per-AS storage with proportional distribution: order of 10^2 Mbit
//     (the paper reports 173 Mbit against its BGP-snapshot AS count);
//   * worldwide update traffic ~10 Gb/s — "a minute fraction" of total
//     Internet traffic (~50 * 10^6 Gb/s in 2010).
// On top of the closed form, the per-AS distribution is evaluated against
// the generated prefix table.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/queueing.h"
#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "core/storage_model.h"
#include "sim/environment.h"
#include "sim/experiments.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  bench::CheckArgs(args);

  std::printf("=== Section IV-A: storage & update traffic overhead ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  const StorageModelParams params;  // the paper's assumptions
  const StorageEstimate e = EstimateStorage(params);

  std::printf("entry size: %d bits (160 GUID + 5x32 NA + 32 meta)\n",
              kMappingEntryBits);
  std::printf("total storage (5B GUIDs x K=5): %.1f Tbit\n",
              e.total_storage_bits / 1e12);
  std::printf("mean per-AS storage: %.0f Mbit  (paper: ~173 Mbit*)\n",
              e.mean_per_as_bits / 1e6);
  std::printf("  * the paper divides by its BGP-snapshot AS count; with the\n"
              "    DIMES count of 26,424 the proportional mean is ~333 Mbit.\n"
              "    Either way: a modest, easily provisioned table.\n");
  std::printf("update events: %.2f M/s worldwide\n",
              e.updates_per_second / 1e6);
  std::printf("update traffic: %.1f Gb/s  (paper: ~10 Gb/s, vs ~5x10^7 Gb/s "
              "total Internet traffic)\n\n",
              e.update_traffic_bps / 1e9);

  // Measured per-AS distribution over the generated prefix table.
  const std::uint32_t num_ases = bench::ScaledU32(26424, scale, 300);
  PrefixGenParams gen;
  gen.num_ases = num_ases;
  const PrefixTable table = GeneratePrefixTable(gen);
  StorageModelParams scaled = params;
  scaled.num_ases = num_ases;
  std::vector<double> per_as = PerAsStorageBits(scaled, table);
  std::sort(per_as.begin(), per_as.end());

  TextTable dist({"percentile", "per-AS storage (Mbit)"});
  for (const double q : {0.10, 0.50, 0.90, 0.99, 1.0}) {
    const std::size_t idx =
        std::min(per_as.size() - 1, std::size_t(q * double(per_as.size())));
    dist.AddRow({TextTable::FormatDouble(q * 100, 0) + "%",
                 TextTable::FormatDouble(per_as[idx] / 1e6, 1)});
  }
  std::printf("per-AS distribution (proportional to announced share, %u "
              "ASs):\n%s\n",
              num_ases, dist.Render().c_str());

  // Section IV-B assumes mapping-server queueing/processing delay is
  // negligible; quantify that with an M/M/1 model fed by the measured NLR
  // distribution (hottest server = highest NLR).
  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(8000, scale, 300)));
  ObservabilitySinks obs(sim);
  LoadBalanceConfig lb;
  lb.threads = sim.threads;
  lb.metrics = obs.registry();
  lb.num_guids = bench::Scaled(500'000, scale, 50'000);
  const LoadBalanceResult nlr_run = RunLoadBalanceExperiment(env, lb);

  ServerLoadParams server;  // 1M queries/s globally, IV-A update stream
  const ServerLoadReport report = AnalyzeServerLoad(
      server, nlr_run.nlr.samples(), env.graph.num_nodes());
  std::printf("mapping-server queueing (M/M/1, %.0fk req/s per server, "
              "measured NLR skew):\n",
              server.service_rate_per_s / 1000);
  std::printf("  mean server: utilization %.4f%%, p95 sojourn %.4f ms\n",
              100 * report.mean_server.utilization,
              report.mean_server.p95_sojourn_ms);
  std::printf("  hottest server: utilization %.4f%%, p95 sojourn %.4f ms\n",
              100 * report.hottest_server.utilization,
              report.hottest_server.p95_sojourn_ms);
  std::printf("  headroom: global query rate could reach %.1e/s before the "
              "hottest\n  server's p95 sojourn hits 1 ms — the paper's "
              "negligible-delay assumption\n  holds by orders of "
              "magnitude\n",
              report.max_global_queries_per_s);
  obs.Finish();
  return 0;
}
