// Figure 10 (extension): the mobility fast path. The paper motivates DMap
// with mobile hosts whose identifier-to-locator bindings change as they
// move (Section I), but its update path re-registers one GUID at a time —
// K InsertRequests per identifier per handoff. A device carrying several
// identifiers multiplies that by N on every migration. Two panels measure
// the two halves of the fast path:
//
//  * update traffic vs batch size — the same handoff schedule replayed
//    with the host's N moves coalesced into BatchUpdateRequests (one wire
//    message per distinct destination AS per wave) against the K*N
//    singleton baseline. Store state is bit-identical for every batch
//    size; only the message count and the completion model change.
//
//  * staleness vs TTL — a Poisson lookup stream over the mobile GUIDs
//    served through the resolver-side cache while the handoffs churn the
//    bindings underneath it. Longer TTLs buy hit rate (one intra-AS round
//    trip instead of an inter-AS probe) at the price of stale answers;
//    the panel traces that frontier, plus the invalidate-on-update mode
//    that pins staleness to zero.
//
// --batch-updates=<B> narrows the batch panel to one size; --cache=<...>
// overrides the TTL panel's cache template (its ttl_ms seeds a one-point
// sweep unless the built-in grid is used). Exports are byte-identical for
// every --threads value (tools/determinism_table.sh diffs 1 vs 4).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/mobility_sweep.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const int shards = SimConfig::Shards(args);
  const std::optional<int> batch_updates = bench::BatchUpdates(args);
  const CacheConfig cache_flag = bench::Cache(args);
  bench::CheckArgs(args);

  std::printf("=== Fig 10: mobility fast path ===\n");

  SimEnvironment env = BuildEnvironment(
      EnvironmentParams::Scaled(bench::ScaledU32(2000, scale, 200)));
  ObservabilitySinks obs(sim);

  MobilityConfig config;
  config.mobility.num_hosts = bench::ScaledU32(1000, scale, 50);
  config.mobility.guids_per_host = 8;
  config.mobility.handoff_rate_hz = 1.0;
  config.mobility.horizon_s = 10.0;
  config.threads = sim.threads;
  config.shards = shards;
  config.metrics = obs.registry();
  if (batch_updates) config.batch_sizes = {*batch_updates};

  if (cache_flag.enabled()) {
    config.cache = cache_flag;
    // An explicit TTL makes the flag a one-point sweep; otherwise the
    // template (capacity/shards/coherence) applies to the built-in grid.
    if (cache_flag.ttl_ms > 0.0) config.ttl_sweep_ms = {cache_flag.ttl_ms};
  } else {
    config.cache.capacity = 1 << 16;
  }
  if (config.ttl_sweep_ms.empty()) {
    config.ttl_sweep_ms = {50.0, 200.0, 1000.0, 5000.0, 20000.0};
  }
  config.lookup_rate_hz =
      2000.0 * (double(config.mobility.num_hosts) / 1000.0);

  std::printf(
      "scale=%.3f hosts=%u guids/host=%u handoff=%.1f/s horizon=%.0fs "
      "cache: cap=%zu shards=%d %s\n\n",
      scale, config.mobility.num_hosts,
      config.mobility.guids_per_host, config.mobility.handoff_rate_hz,
      config.mobility.horizon_s, config.cache.capacity, config.cache.shards,
      config.cache.invalidate_on_update ? "invalidate-on-update" : "ttl-only");

  const MobilityResult result = RunMobilitySweep(env, config);

  std::printf("--- update traffic vs batch size ---\n");
  TextTable batch_table({"batch", "handoffs", "updates", "waves", "batch msg",
                         "singleton msg", "reduction", "wave ms"});
  for (const MobilityBatchPoint& p : result.batch_points) {
    batch_table.AddRow({std::to_string(p.batch_size),
                        std::to_string(p.handoffs),
                        std::to_string(p.guid_updates),
                        std::to_string(p.waves),
                        std::to_string(p.batch_messages),
                        std::to_string(p.singleton_messages),
                        TextTable::FormatDouble(p.reduction) + "x",
                        TextTable::FormatDouble(p.mean_wave_latency_ms)});
  }
  std::printf("%s\n", batch_table.Render().c_str());

  std::printf("--- staleness vs TTL (cache frontier) ---\n");
  TextTable ttl_table({"ttl ms", "lookups", "found", "hit%", "stale%",
                       "evict", "inval", "mean ms"});
  for (const MobilityTtlPoint& p : result.ttl_points) {
    ttl_table.AddRow({TextTable::FormatDouble(p.ttl_ms, 0),
                      std::to_string(p.lookups), std::to_string(p.found),
                      TextTable::FormatDouble(100.0 * p.hit_rate, 2),
                      TextTable::FormatDouble(100.0 * p.stale_fraction, 3),
                      std::to_string(p.evictions),
                      std::to_string(p.invalidations),
                      TextTable::FormatDouble(p.mean_latency_ms)});
  }
  std::printf("%s\n", ttl_table.Render().c_str());

  std::printf(
      "expected: batched messages per handoff fall from K*N toward the\n"
      "number of distinct replica-holding ASes as the batch size grows;\n"
      "on the TTL panel hit rate climbs and mean latency falls with the\n"
      "TTL while the stale fraction rises — invalidate-on-update pins\n"
      "staleness to zero at the cost of invalidation traffic.\n");
  obs.Finish();
  return 0;
}
