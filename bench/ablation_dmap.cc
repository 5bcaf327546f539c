// Ablation sweeps over DMap's own design choices (DESIGN.md section 4):
//   (a) replica count K = 1..10 — simulated counterpart of Figure 7's
//       diminishing returns;
//   (b) the local-replica optimisation of Section III-C on/off;
//   (c) replica selection policy: lowest-RTT vs fewest-hops (Section
//       IV-B-2a notes hop-count selection is "similar ... albeit with
//       marginally increased latencies");
//   (d) the rehash bound M of Algorithm 1 — deputy fall-through rate and
//       hash-evaluation cost;
//   (e) placement mode: address-space hashing (baseline DMap) vs hashing
//       GUIDs directly to AS numbers (Section VII future work) — load
//       proportionality vs uniformity;
//   (f) in-network caching (Section VII future work) — hit rate, latency,
//       staleness vs TTL.
#include <cstdio>
#include <unordered_map>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "core/as_hashing.h"
#include "core/bucket_index.h"
#include "core/hole_resolver.h"
#include "core/resolver_cache.h"
#include "sim/experiments.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const int shards = SimConfig::Shards(args);
  bench::CheckArgs(args);

  std::printf("=== Ablation: DMap design choices ===\n");
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
  config.workload.num_guids = bench::Scaled(20'000, scale, 1000);
  config.workload.num_lookups = bench::Scaled(100'000, scale, 5000);

  // (a) K sweep.
  {
    const auto sweep =
        RunResponseTimeSweep(env, {1, 2, 3, 4, 5, 6, 8, 10}, config);
    TextTable table({"K", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
    for (const auto& [k, samples] : sweep) {
      bench::PrintSummaryRow(table, std::to_string(k), samples);
    }
    std::printf("(a) replica count sweep:\n%s\n", table.Render().c_str());
  }

  // (b) local replica on/off (K = 5).
  {
    TextTable table(
        {"local replica", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
    for (const bool local : {true, false}) {
      ResponseTimeConfig c = config;
      c.k = 5;
      c.local_replica = local;
      bench::PrintSummaryRow(table, local ? "on" : "off",
                             RunResponseTimeExperiment(env, c));
    }
    std::printf("(b) local-replica optimisation (Section III-C):\n%s\n",
                table.Render().c_str());
  }

  // (c) replica selection policy (K = 5).
  {
    TextTable table(
        {"selection", "lookups", "mean (ms)", "median (ms)", "p95 (ms)"});
    for (const auto& [name, policy] :
         std::vector<std::pair<std::string, ReplicaSelection>>{
             {"lowest-rtt", ReplicaSelection::kLowestRtt},
             {"fewest-hops", ReplicaSelection::kFewestHops}}) {
      ResponseTimeConfig c = config;
      c.k = 5;
      c.selection = policy;
      bench::PrintSummaryRow(table, name, RunResponseTimeExperiment(env, c));
    }
    std::printf("(c) replica selection policy:\n%s", table.Render().c_str());
    std::printf("paper: hop-count selection is similar with marginally "
                "increased latencies\n\n");
  }

  // (d) rehash bound M.
  {
    TextTable table({"M", "deputy fallbacks", "fallback rate",
                     "hash evals/resolve"});
    const std::uint64_t guids = bench::Scaled(200'000, scale, 10'000);
    for (const int m : {1, 2, 3, 5, 10, 20}) {
      LoadBalanceConfig c;
      c.metrics = obs.registry();
      c.num_guids = guids;
      c.max_hashes = m;
      const LoadBalanceResult r = RunLoadBalanceExperiment(env, c);
      const double resolutions = double(guids) * 5;
      table.AddRow(
          {std::to_string(m), std::to_string(r.deputy_fallbacks),
           TextTable::FormatDouble(
               100.0 * double(r.deputy_fallbacks) / resolutions, 4) +
               "%",
           TextTable::FormatDouble(double(r.total_hash_evals) / resolutions,
                                   3)});
    }
    std::printf("(d) Algorithm 1 rehash bound M:\n%s", table.Render().c_str());
    std::printf("paper: fall-through probability ~0.034%% at M=10\n\n");
  }

  // (e) placement mode: address-space hashing vs direct-to-AS hashing.
  {
    const std::uint64_t guids = bench::Scaled(200'000, scale, 10'000);
    const GuidHashFamily hashes(5, 0x5eedf00dULL);

    // Baseline DMap placement.
    LoadBalanceConfig c;
    c.metrics = obs.registry();
    c.num_guids = guids;
    const LoadBalanceResult dmap_result = RunLoadBalanceExperiment(env, c);

    // Direct-to-AS placement: counts per AS, same NLR metric.
    const AsHashResolver direct(hashes, env.graph.num_nodes());
    std::vector<std::uint64_t> counts(env.graph.num_nodes(), 0);
    for (std::uint64_t i = 0; i < guids; ++i) {
      const Guid g = Guid::FromSequence(i ^ (11 * 0x9e3779b97f4a7c15ULL));
      for (int r = 0; r < 5; ++r) ++counts[direct.Resolve(g, r)];
    }
    const SampleSet direct_nlr = ComputeNlr(counts, env.table);

    // Section VII's second variant: "allocation sizes can be varied to
    // reflect economic incentives" — weight the direct-to-AS draw by each
    // AS's announced share. This recovers DMap's proportionality without
    // any IP-hole machinery (at the cost of distributing the weight table
    // out of band instead of reusing BGP).
    std::vector<double> weights(env.graph.num_nodes(), 0.0);
    const auto& owned = env.table.ownership_by_as();
    for (std::size_t as = 0; as < weights.size() && as < owned.size();
         ++as) {
      weights[as] = double(owned[as]);
    }
    const AsHashResolver weighted(hashes, std::move(weights));
    std::vector<std::uint64_t> weighted_counts(env.graph.num_nodes(), 0);
    for (std::uint64_t i = 0; i < guids; ++i) {
      const Guid g = Guid::FromSequence(i ^ (13 * 0x9e3779b97f4a7c15ULL));
      for (int r = 0; r < 5; ++r) ++weighted_counts[weighted.Resolve(g, r)];
    }
    const SampleSet weighted_nlr = ComputeNlr(weighted_counts, env.table);

    TextTable table({"placement", "median NLR", "p5 NLR", "p95 NLR",
                     "in [0.4,1.6]"});
    const auto row = [&](const std::string& name, const SampleSet& nlr) {
      table.AddRow({name, TextTable::FormatDouble(nlr.Quantile(0.5), 2),
                    TextTable::FormatDouble(nlr.Quantile(0.05), 2),
                    TextTable::FormatDouble(nlr.Quantile(0.95), 2),
                    TextTable::FormatDouble(
                        100 * FractionWithin(nlr, 0.4, 1.6), 1) +
                        "%"});
    };
    row("address-space (DMap)", dmap_result.nlr);
    row("direct-to-AS uniform (Sec VII)", direct_nlr);
    row("direct-to-AS share-weighted", weighted_nlr);
    std::printf("(e) placement mode — NLR is measured against announced\n"
                "    address share, so direct-to-AS (equal count per AS)\n"
                "    over-loads small ASs and starves large ones:\n%s\n",
                table.Render().c_str());
  }

  // (f) in-network caching: hit rate / latency / staleness vs TTL.
  {
    config.k = 5;
    DMapOptions service_options;
    service_options.k = 5;
    service_options.measure_update_latency = false;

    TextTable table({"cache TTL", "hit rate", "mean (ms)", "median (ms)",
                     "stale hits"});
    for (const double ttl_s : {0.0, 30.0, 300.0}) {
      DMapService service(env.graph, env.table, service_options);
      // Replica 0's host for staleness scoring. Scoring is bookkeeping that
      // no lookup does, so its resolutions stay out of algo1.*, which
      // counts only the service's own.
      const HoleResolver scorer(service.hash_family(), env.table,
                                service.resolver().max_hashes());
      if (obs.registry() != nullptr) service.SetMetrics(obs.registry());
      if (obs.tracer() != nullptr) service.SetTracer(obs.tracer());
      WorkloadGenerator workload(env.graph, config.workload);
      for (const InsertOp& op : workload.Inserts()) {
        (void)service.Insert(op.guid, op.na);
      }

      // Queriers come from a 256-AS vantage set (caches are per-AS; a
      // deployment runs resolvers at PoPs, concentrating repeats). Lookups
      // arrive in true temporal order over a 10-minute window, with 10% of
      // the hosts moving midway — so long TTLs risk serving stale NAs.
      std::vector<AsId> vantage;
      {
        std::vector<AsId> by_weight(env.graph.num_nodes());
        for (AsId as = 0; as < env.graph.num_nodes(); ++as) {
          by_weight[as] = as;
        }
        std::sort(by_weight.begin(), by_weight.end(), [&](AsId a, AsId b) {
          return env.graph.EndNodeWeight(a) > env.graph.EndNodeWeight(b);
        });
        by_weight.resize(std::min<std::size_t>(256, by_weight.size()));
        vantage = std::move(by_weight);
      }
      auto ops = workload.Lookups(config.workload.num_lookups,
                                  /*sort_by_source=*/false);
      for (LookupOp& op : ops) {
        op.source = vantage[op.source % vantage.size()];
      }

      SampleSet latencies;
      std::uint64_t stale = 0, hits = 0;
      if (ttl_s == 0.0) {
        for (const LookupOp& op : ops) {
          latencies.Add(service.Lookup(op.guid, op.source).latency_ms);
        }
      } else {
        // One serial single-shard cache with 4096 entries per vantage AS.
        // It never evicts (each vantage AS sees ~400 lookups at --scale
        // 1), so it behaves as independent per-AS caches.
        CacheConfig cache_config;
        cache_config.capacity = vantage.size() * 4096;
        cache_config.ttl_ms = ttl_s * 1000.0;
        cache_config.shards = 1;
        ResolverCache cache(cache_config);
        const double window_s = 600.0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (i == ops.size() / 2) {
            for (const MoveOp& move :
                 workload.Moves(config.workload.num_guids / 10)) {
              (void)service.Update(move.guid, move.new_na);
            }
          }
          const SimTime now = SimTime::Seconds(
              window_s * double(i) / double(ops.size()));
          const Guid& guid = ops[i].guid;
          const AsId querier = ops[i].source;
          if (const MappingEntry* cached = cache.Get(querier, guid, now)) {
            // A hit answers in one intra-AS round trip. Staleness is
            // scored against replica 0's entry: store access only, no
            // simulated network cost.
            latencies.Add(2.0 * env.graph.IntraLatencyMs(querier));
            ++hits;
            const HostResolution replica0 = scorer.ResolveAll(guid)[0];
            const MappingEntry* authoritative =
                service.StoreLookup(replica0.host, guid);
            if (authoritative != nullptr &&
                !(authoritative->nas == cached->nas)) {
              ++stale;
            }
            continue;
          }
          const LookupResult r = service.Lookup(guid, querier);
          if (!r.found) continue;
          latencies.Add(r.latency_ms);
          MappingEntry entry;
          entry.nas = r.nas;
          cache.Put(querier, guid, entry, now);
        }
      }
      table.AddRow(
          {ttl_s == 0 ? "off" : TextTable::FormatDouble(ttl_s, 0) + " s",
           TextTable::FormatDouble(100.0 * double(hits) /
                                       double(latencies.count()),
                                   1) +
               "%",
           TextTable::FormatDouble(latencies.mean()),
           TextTable::FormatDouble(latencies.Quantile(0.5)),
           std::to_string(stale)});
    }
    std::printf("(f) in-network caching (Section VII future work):\n%s",
                table.Render().c_str());
    std::printf("longer TTL -> more one-intra-hop answers but stale hits "
                "after mobility\n\n");
  }

  // (g) sparse address spaces: Algorithm 1's rehash-until-hit vs the
  //     two-level bucketing scheme of Section III-B / Figure 3.
  {
    const GuidHashFamily hashes(2, 0x5eedf00dULL);
    // An IPv6-like space: 300k announced /48-equivalents in a 64-bit
    // space — density ~1e-9, so rehashing would need ~10^9 evaluations
    // per resolution while the bucket index always takes exactly 2.
    std::vector<AddressSegment> segments;
    Rng rng(33);
    for (int i = 0; i < 300'000; ++i) {
      segments.push_back(AddressSegment{
          rng.Next() & ~std::uint64_t{0xffff}, 65'536,
          AsId(rng.NextBounded(env.graph.num_nodes()))});
    }
    double announced = 0;
    for (const auto& s : segments) announced += double(s.size);
    const double density = announced / 1.8446744e19;

    const BucketIndex index(segments, 65'536, hashes);
    const std::uint64_t guids = bench::Scaled(100'000, scale, 5000);
    std::uint64_t resolved = 0;
    for (std::uint64_t i = 0; i < guids; ++i) {
      const auto r = index.Resolve(Guid::FromSequence(i), int(i % 2));
      resolved += (r.address >= r.segment.base) ? 1 : 0;
    }

    TextTable table({"scheme", "expected hash evals / resolution"});
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2e", 1.0 / density);
    table.AddRow({"rehash-until-hit (Algorithm 1)", buf});
    table.AddRow({"two-level bucket index (Fig 3)", "2"});
    std::printf("(g) sparse (IPv6-like) address space, announced density "
                "%.2e:\n%s",
                density, table.Render().c_str());
    std::printf("bucket index resolved %llu/%llu GUIDs in exactly two "
                "hashes each (max bucket size %zu)\n\n",
                (unsigned long long)resolved, (unsigned long long)guids,
                index.max_bucket_size());
  }

  // (h) topology robustness: the K-replica gains must not be an artifact
  //     of the jellyfish/preferential-attachment latency model. Re-run the
  //     Figure 4 sweep on the geographically embedded topology (distance-
  //     proportional latencies, regional peering).
  {
    EnvironmentParams geo_params = EnvironmentParams::Scaled(
        bench::ScaledU32(8000, scale, 300));
    geo_params.topology.geographic = true;
    SimEnvironment geo_env = BuildEnvironment(geo_params);
    const auto sweep = RunResponseTimeSweep(geo_env, {1, 3, 5}, config);
    TextTable table({"K (geographic topology)", "lookups", "mean (ms)",
                     "median (ms)", "p95 (ms)"});
    for (const auto& [k, samples] : sweep) {
      bench::PrintSummaryRow(table, std::to_string(k), samples);
    }
    std::printf("(h) topology robustness — same sweep on a geographically\n"
                "    embedded topology (regional peering, distance-based\n"
                "    latencies). The K ordering and relative gains must\n"
                "    persist:\n%s",
                table.Render().c_str());
  }
  obs.Finish();
  return 0;
}
