#include "sim/mobility_sweep.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/sampler.h"
#include "obs/cache_metrics.h"
#include "obs/metrics_registry.h"
#include "runtime/thread_pool.h"

namespace dmap {
namespace {

DMapOptions MakeOptions(const MobilityConfig& config) {
  DMapOptions options;
  options.k = config.k;
  options.store_shards = config.shards;
  options.measure_update_latency = true;
  return options;
}

// One lookup of the TTL panel's Poisson stream, generated once up front
// (seed-pure, shared by every TTL point so the points differ only in the
// cache's freshness bound).
struct TimedLookup {
  double at_ms = 0.0;
  Guid guid;
  AsId source = kInvalidAs;
};

std::vector<TimedLookup> GenerateLookups(const SimEnvironment& env,
                                         const MobilityWorkload& workload,
                                         const MobilityConfig& config) {
  std::vector<TimedLookup> stream;
  Rng rng(config.mobility.seed ^ 0x94d049bb133111ebULL);
  AliasSampler source_sampler(env.graph.end_node_weights());
  const MobilityParams& m = config.mobility;
  double t_s = 0.0;
  while (true) {
    t_s += rng.NextExponential(1.0 / config.lookup_rate_hz);
    if (t_s >= m.horizon_s) break;
    TimedLookup lookup;
    lookup.at_ms = t_s * 1000.0;
    const std::uint32_t host = std::uint32_t(rng.NextBounded(m.num_hosts));
    const std::uint32_t i =
        std::uint32_t(rng.NextBounded(m.guids_per_host));
    lookup.guid = workload.GuidOf(host, i);
    lookup.source = AsId(source_sampler.Sample(rng));
    stream.push_back(lookup);
  }
  return stream;
}

}  // namespace

MobilityResult RunMobilitySweep(SimEnvironment& env,
                                const MobilityConfig& config) {
  config.mobility.Validate();
  for (const int size : config.batch_sizes) {
    if (size < 1) {
      throw std::invalid_argument(
          "MobilityConfig: batch_sizes entries must be >= 1 (got " +
          std::to_string(size) + ")");
    }
  }
  if (!config.ttl_sweep_ms.empty()) {
    if (!config.cache.enabled()) {
      throw std::invalid_argument(
          "MobilityConfig: ttl_sweep_ms set but cache.capacity == 0");
    }
    config.cache.Validate();
    if (!(config.lookup_rate_hz > 0.0)) {
      throw std::invalid_argument("MobilityConfig: lookup_rate_hz <= 0");
    }
  }

  MobilityResult result;
  const MobilityWorkload workload(env.graph, config.mobility);

  // ---- Batch panel: update traffic vs batch size -------------------------
  //
  // Every point replays the same schedule against its own service. Writes
  // are serial by contract (the store's WRITE_SERIAL_READ_SHARED
  // discipline), so points run in a plain loop — the closed form makes
  // the replay cheap, and the panel is trivially thread-independent.
  result.batch_points.reserve(config.batch_sizes.size());
  for (const int batch_size : config.batch_sizes) {
    DMapService service(env.graph, env.table, MakeOptions(config));
    for (const InsertOp& op : workload.InitialInserts()) {
      (void)service.Insert(op.guid, op.na);
    }

    MobilityBatchPoint point;
    point.batch_size = batch_size;
    double wave_latency_sum_ms = 0.0;
    std::vector<std::pair<Guid, NetworkAddress>> chunk;
    for (const Handoff& handoff : workload.Handoffs()) {
      const auto moves = workload.MovesFor(handoff);
      for (std::size_t begin = 0; begin < moves.size();
           begin += std::size_t(batch_size)) {
        const std::size_t end =
            std::min(moves.size(), begin + std::size_t(batch_size));
        chunk.assign(moves.begin() + long(begin), moves.begin() + long(end));
        const BatchUpdateResult wave = service.BatchUpdate(chunk);
        ++point.waves;
        point.batch_messages += wave.messages;
        point.singleton_messages += wave.unbatched_messages;
        wave_latency_sum_ms += wave.latency_ms;
      }
      ++point.handoffs;
      point.guid_updates += moves.size();
    }
    point.reduction = point.batch_messages > 0
                          ? double(point.singleton_messages) /
                                double(point.batch_messages)
                          : 0.0;
    point.mean_wave_latency_ms =
        point.waves > 0 ? wave_latency_sum_ms / double(point.waves) : 0.0;
    result.batch_points.push_back(point);
  }

  // ---- TTL panel: staleness vs hit rate ---------------------------------
  //
  // Phased closed-form replay per TTL point, following the repo's
  // epoch/batch discipline: handoffs (and the cache's fill merge +
  // snapshot republish) happen at serial points; the lookups that arrive
  // between two handoffs run as a parallel block against the published
  // snapshots. Cache time advances at handoff granularity, so TTL expiry
  // is evaluated against the last handoff time — the natural resolution
  // of a schedule-driven replay. Per-lookup outcomes land in preallocated
  // slots and are folded in index order, so sums (and exports) are
  // bit-identical for every thread count.
  if (!config.ttl_sweep_ms.empty()) {
    const std::vector<TimedLookup> stream =
        GenerateLookups(env, workload, config);
    ThreadPool pool(config.threads);

    struct Outcome {
      float latency_ms = 0.0f;
      bool found = false;
    };
    std::vector<Outcome> outcomes(stream.size());

    result.ttl_points.reserve(config.ttl_sweep_ms.size());
    for (const double ttl_ms : config.ttl_sweep_ms) {
      DMapOptions options = MakeOptions(config);
      options.cache = config.cache;
      options.cache.ttl_ms = ttl_ms;
      DMapService service(env.graph, env.table, options);
      for (const InsertOp& op : workload.InitialInserts()) {
        (void)service.Insert(op.guid, op.na);
      }
      service.oracle().SetNumShards(pool.size());
      service.cache()->EnsureWorkers(pool.size());
      service.RefreshReadSnapshots();

      // Merge the handoff schedule and the lookup stream on time: run the
      // lookup block before each handoff, then the handoff serially.
      std::size_t next = 0;  // first lookup not yet run
      const auto run_block_until = [&](double until_ms) {
        std::size_t end = next;
        while (end < stream.size() && stream[end].at_ms < until_ms) ++end;
        if (end == next) return;
        const std::size_t begin = next;
        pool.RunChunks(end - begin, [&](std::size_t i, unsigned worker) {
          const TimedLookup& lookup = stream[begin + i];
          const LookupResult r =
              service.Lookup(lookup.guid, lookup.source, worker);
          outcomes[begin + i].latency_ms = float(r.latency_ms);
          outcomes[begin + i].found = r.found;
        });
        next = end;
        // Serial point: merge the block's fills and republish snapshots so
        // the next block sees them.
        service.RefreshReadSnapshots();
      };

      for (const Handoff& handoff : workload.Handoffs()) {
        run_block_until(handoff.at.millis());
        service.AdvanceCacheTime(handoff.at);
        (void)service.BatchUpdate(workload.MovesFor(handoff));
        service.RefreshReadSnapshots();
      }
      run_block_until(config.mobility.horizon_s * 1000.0);

      MobilityTtlPoint point;
      point.ttl_ms = ttl_ms;
      point.lookups = stream.size();
      double latency_sum_ms = 0.0;
      for (const Outcome& outcome : outcomes) {  // index order: serial fold
        if (!outcome.found) continue;
        ++point.found;
        latency_sum_ms += double(outcome.latency_ms);
      }
      const ResolverCache& cache = *service.cache();
      point.cache_hits = cache.hits();
      point.cache_misses = cache.misses();
      point.stale_served = cache.stale_served();
      point.evictions = cache.evictions();
      point.invalidations = cache.invalidations();
      const std::uint64_t probes = point.cache_hits + point.cache_misses;
      point.hit_rate =
          probes > 0 ? double(point.cache_hits) / double(probes) : 0.0;
      point.stale_fraction =
          point.cache_hits > 0
              ? double(point.stale_served) / double(point.cache_hits)
              : 0.0;
      point.mean_latency_ms =
          point.found > 0 ? latency_sum_ms / double(point.found) : 0.0;
      if (config.metrics != nullptr) {
        ContributeCacheMetrics(cache, *config.metrics);
      }
      result.ttl_points.push_back(point);
    }
  }

  // ---- Serial metrics merge (point order, shard 0) ----------------------
  if (config.metrics != nullptr) {
    MetricsRegistry& registry = *config.metrics;
    const CounterId handoffs = registry.Counter("mobility.handoffs");
    const CounterId guid_updates = registry.Counter("mobility.guid_updates");
    const CounterId waves = registry.Counter("mobility.batch_waves");
    const CounterId batch_messages =
        registry.Counter("mobility.batch_messages");
    const CounterId singleton_messages =
        registry.Counter("mobility.singleton_messages");
    for (const MobilityBatchPoint& point : result.batch_points) {
      registry.Add(handoffs, point.handoffs, 0);
      registry.Add(guid_updates, point.guid_updates, 0);
      registry.Add(waves, point.waves, 0);
      registry.Add(batch_messages, point.batch_messages, 0);
      registry.Add(singleton_messages, point.singleton_messages, 0);
    }
    if (!result.ttl_points.empty()) {
      const CounterId lookups = registry.Counter("mobility.lookups");
      const CounterId found = registry.Counter("mobility.found");
      for (const MobilityTtlPoint& point : result.ttl_points) {
        registry.Add(lookups, point.lookups, 0);
        registry.Add(found, point.found, 0);
      }
    }
  }
  return result;
}

}  // namespace dmap
