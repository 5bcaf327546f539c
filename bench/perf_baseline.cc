// Performance trajectory baseline: times the three hot primitives this
// repo's sweeps are built from —
//   1. hub-label construction (once per topology),
//   2. point-distance queries, hub labels vs the per-source Dijkstra+LRU
//      oracle (the query stream is grouped by source AS, like every real
//      harness loop, so the LRU path amortises one SSSP per group),
//   3. Algorithm 1 resolution, DIR-24-8 snapshot vs trie walk —
// and emits BENCH_perf.json (schema bench_perf.v1, stable keys) so future
// PRs can diff perf against this one. Timings are wall-clock and machine-
// dependent; the *checksums* are not — both engines must produce bit-
// identical answers, and the file records that the run verified it.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/dmap_service.h"
#include "core/hole_resolver.h"
#include "core/mapping_store.h"
#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "sim/environment.h"
#include "topo/hub_labels.h"
#include "workload/mobility.h"

namespace {

using namespace dmap;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Queries per source-AS group: the LRU oracle pays one Dijkstra per group
// and serves the rest from the cached vector, mirroring the harnesses'
// source-partitioned loops.
constexpr std::uint64_t kGroupSize = 100;

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::ParseBenchArgs(argc, argv);
  const std::uint64_t num_queries = bench::Scaled(1'000'000, options.scale);
  const std::uint64_t num_resolves = bench::Scaled(1'000'000, options.scale);

  std::printf("=== perf baseline: distance oracle + resolve fast path ===\n");
  std::printf("scale=%.3f threads=%u queries=%llu resolves=%llu\n\n",
              options.scale, ThreadPool::Resolve(options.threads),
              (unsigned long long)num_queries,
              (unsigned long long)num_resolves);

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(26424, options.scale, 300)));
  const std::uint32_t n = env.graph.num_nodes();

  // ---- 1. label build ----------------------------------------------------
  const auto build_start = std::chrono::steady_clock::now();
  ThreadPool pool(options.threads);
  const HubLabels labels(env.graph, &pool);
  const double build_ms = MsSince(build_start);
  const auto& stats = labels.stats();
  std::printf("label build: %.1f ms (%llu latency + %llu hop entries, "
              "max label %llu)\n",
              build_ms, (unsigned long long)stats.latency_entries,
              (unsigned long long)stats.hop_entries,
              (unsigned long long)stats.max_latency_label);

  // ---- 2. point queries: lru vs hub --------------------------------------
  // Identical (src, dst) stream for both engines; the checksums must match
  // bit-for-bit (grid-quantized latencies sum exactly in float).
  double lru_sum = 0.0, hub_sum = 0.0;
  double lru_ms = 0.0, hub_ms = 0.0;
  {
    PathOracle oracle(env.graph);
    Rng rng(12345);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t issued = 0;
    while (issued < num_queries) {
      const AsId src = AsId(rng.NextBounded(n));
      for (std::uint64_t j = 0; j < kGroupSize && issued < num_queries;
           ++j, ++issued) {
        const AsId dst = AsId(rng.NextBounded(n));
        lru_sum += oracle.LinkLatencyMs(src, dst);
      }
    }
    lru_ms = MsSince(start);
  }
  {
    PathOracle oracle(env.graph);
    oracle.SetHubLabels(&labels);
    Rng rng(12345);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t issued = 0;
    while (issued < num_queries) {
      const AsId src = AsId(rng.NextBounded(n));
      for (std::uint64_t j = 0; j < kGroupSize && issued < num_queries;
           ++j, ++issued) {
        const AsId dst = AsId(rng.NextBounded(n));
        hub_sum += oracle.LinkLatencyMs(src, dst);
      }
    }
    hub_ms = MsSince(start);
  }
  const bool point_match = lru_sum == hub_sum;
  std::printf("point queries: lru %.1f ms, hub %.1f ms (%.1fx), "
              "checksums %s\n",
              lru_ms, hub_ms, hub_ms > 0 ? lru_ms / hub_ms : 0.0,
              point_match ? "match" : "MISMATCH");

  // ---- 3. Algorithm 1: trie vs snapshot ----------------------------------
  const GuidHashFamily hashes(5, 1);
  std::uint64_t trie_hash_evals = 0, snap_hash_evals = 0;
  double trie_ms = 0.0, snap_ms = 0.0;
  {
    const HoleResolver resolver(hashes, env.table, 10);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < num_resolves; ++i) {
      trie_hash_evals += std::uint64_t(
          resolver.Resolve(Guid::FromSequence(i), int(i % 5)).hash_count);
    }
    trie_ms = MsSince(start);
  }
  {
    HoleResolver resolver(hashes, env.table, 10);
    resolver.EnableSnapshot();
    resolver.RefreshSnapshot();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < num_resolves; ++i) {
      snap_hash_evals += std::uint64_t(
          resolver.Resolve(Guid::FromSequence(i), int(i % 5)).hash_count);
    }
    snap_ms = MsSince(start);
  }
  const bool resolve_match = trie_hash_evals == snap_hash_evals;
  std::printf("resolve: trie %.1f ms, snapshot %.1f ms (%.1fx), "
              "hash-eval totals %s\n\n",
              trie_ms, snap_ms, snap_ms > 0 ? trie_ms / snap_ms : 0.0,
              resolve_match ? "match" : "MISMATCH");

  // ---- 4. serving: single-store serial vs sharded snapshot loop ----------
  // End-to-end mapping service: resolve every replica of each queried GUID
  // (Algorithm 1) and read the hosted entry from the mapping store. Leg A
  // is the pre-sharding shape — one shard, scalar per-replica resolution,
  // one thread. Leg B is the full serving stack: auto-sharded store,
  // batched ResolveBatch wavefronts, all workers. The legs must agree on the
  // order-independent checksums (hits, serving-AS sum, hash evaluations);
  // only the throughput may differ.
  const std::uint64_t num_entries =
      std::min<std::uint64_t>(bench::Scaled(200'000, options.scale), 2'000'000);
  const std::uint64_t num_serves = bench::Scaled(400'000, options.scale);
  constexpr int kServeK = 5;
  struct ServeChecksum {
    std::uint64_t hits = 0;
    std::uint64_t as_sum = 0;
    std::uint64_t hash_evals = 0;
    bool operator==(const ServeChecksum&) const = default;
  };
  const auto populate = [&](ShardedMappingStore& store,
                            const HoleResolver& resolver) {
    for (std::uint64_t i = 0; i < num_entries; ++i) {
      const Guid guid = Guid::FromSequence(i);
      const MappingEntry entry{NaSet(NetworkAddress{AsId(i % n), 1}), 1};
      for (const HostResolution& r : resolver.ResolveAll(guid)) {
        store.Upsert(r.host, guid, entry, r.stored_address);
      }
    }
  };
  const GuidHashFamily serve_hashes(kServeK, 1);
  // The serve stream (and its fingerprints) is workload generation, not
  // serving work: precompute it once, shared verbatim by both legs.
  std::vector<Guid> serve_stream;
  serve_stream.reserve(num_serves);
  for (std::uint64_t i = 0; i < num_serves; ++i) {
    serve_stream.push_back(Guid::FromSequence(i % num_entries));
  }
  double single_ms = 0.0, sharded_ms = 0.0;
  ServeChecksum single_sum, sharded_sum;
  {
    // Leg A: the single-store path.
    HoleResolver resolver(serve_hashes, env.table, 10);
    resolver.EnableSnapshot();
    resolver.RefreshSnapshot();
    ShardedMappingStore store(n, 1);
    populate(store, resolver);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < num_serves; ++i) {
      const Guid& guid = serve_stream[i];
      for (int r = 0; r < kServeK; ++r) {
        const HostResolution h = resolver.Resolve(guid, r);
        single_sum.hash_evals += std::uint64_t(h.hash_count);
        if (const MappingEntry* e = store.Lookup(h.host, guid)) {
          ++single_sum.hits;
          single_sum.as_sum += h.host;
          (void)e;
        }
      }
    }
    single_ms = MsSince(start);
  }
  unsigned serving_shards = 0;
  {
    // Leg B: sharded store + batched resolution, all workers.
    HoleResolver resolver(serve_hashes, env.table, 10);
    resolver.EnableSnapshot();
    resolver.RefreshSnapshot();
    ShardedMappingStore store(n, unsigned(options.shards));
    serving_shards = store.num_shards();
    populate(store, resolver);
    store.RefreshSnapshots();  // serial write point: publish the writes
    constexpr std::uint64_t kBatch = 256;
    const std::uint64_t num_chunks = (num_serves + kBatch - 1) / kBatch;
    std::vector<ServeChecksum> partial(pool.size());
    const auto start = std::chrono::steady_clock::now();
    pool.RunChunks(num_chunks, [&](std::size_t chunk, unsigned worker) {
      ServeChecksum& sum = partial[worker];
      HostResolution hosts[kBatch * kServeK];
      const std::uint64_t begin = std::uint64_t(chunk) * kBatch;
      const std::uint64_t end = std::min(num_serves, begin + kBatch);
      const std::size_t count = std::size_t(end - begin);
      const Guid* guids = serve_stream.data() + begin;
      resolver.ResolveBatch({guids, count}, hosts, worker);
      for (std::size_t g = 0; g < count; ++g) {
        const std::uint64_t fp = guids[g].Fingerprint64();
        for (int r = 0; r < kServeK; ++r) {
          const HostResolution& h = hosts[g * kServeK + std::size_t(r)];
          sum.hash_evals += std::uint64_t(h.hash_count);
          if (store.Read(h.host, guids[g], fp) != nullptr) {
            ++sum.hits;
            sum.as_sum += h.host;
          }
        }
      }
    });
    sharded_ms = MsSince(start);
    for (const ServeChecksum& sum : partial) {
      sharded_sum.hits += sum.hits;
      sharded_sum.as_sum += sum.as_sum;
      sharded_sum.hash_evals += sum.hash_evals;
    }
  }
  const bool serve_match = single_sum == sharded_sum;
  const double total_resolves = double(num_serves) * kServeK;
  const double single_rps =
      single_ms > 0 ? total_resolves / (single_ms / 1000.0) : 0.0;
  const double sharded_rps =
      sharded_ms > 0 ? total_resolves / (sharded_ms / 1000.0) : 0.0;
  std::printf("serving: single-store %.1f ms (%.2fM resolves/s), sharded "
              "%.1f ms (%.2fM resolves/s, %u shards), %.1fx, checksums %s\n\n",
              single_ms, single_rps / 1e6, sharded_ms, sharded_rps / 1e6,
              serving_shards, single_ms > 0 ? single_ms / sharded_ms : 0.0,
              serve_match ? "match" : "MISMATCH");

  // ---- 5. mobility: batched handoffs + cache-served lookups --------------
  // The two halves of the mobility fast path (DESIGN.md section 15), each
  // leg against its unoptimised shape on the same inputs.
  //
  // 5a. Update messages per handoff. A 12-AS gateway cluster — the regime
  // the batch targets: a multi-GUID host whose K*N replica writes land on
  // a handful of destination ASes. Leg A replays every handoff as N
  // sequential Updates (K singleton messages each); leg B coalesces them
  // into one BatchUpdate (one message per distinct destination AS). The
  // store-content checksums must match — batching never changes state.
  const std::uint32_t mobility_guids = 16;
  std::uint64_t unbatched_msgs = 0, batched_msgs = 0, mobility_handoffs = 0;
  double unbatched_ms = 0.0, batched_ms = 0.0;
  bool mobility_match = false;
  {
    SimEnvironment small = BuildEnvironment(EnvironmentParams::Scaled(12));
    MobilityParams mparams;
    mparams.num_hosts = std::uint32_t(bench::Scaled(200, options.scale, 20));
    mparams.guids_per_host = mobility_guids;
    mparams.handoff_rate_hz = 1.0;
    mparams.horizon_s = 10.0;
    const MobilityWorkload mobility(small.graph, mparams);
    mobility_handoffs = mobility.Handoffs().size();
    DMapOptions mopts;
    mopts.measure_update_latency = false;
    // Content checksum over every stored replica of the population —
    // order-independent, so both replays must agree bit-for-bit.
    const auto store_checksum = [&](const DMapService& service) {
      std::uint64_t sum = 0;
      for (std::uint32_t host = 0; host < mparams.num_hosts; ++host) {
        for (std::uint32_t g = 0; g < mparams.guids_per_host; ++g) {
          const Guid guid = mobility.GuidOf(host, g);
          for (std::uint32_t as = 0; as < small.graph.num_nodes(); ++as) {
            if (const MappingEntry* e = service.StoreLookup(AsId(as), guid)) {
              sum += e->version * 1000003u + e->nas[0].locator * 31u +
                     e->nas[0].as + as;
            }
          }
        }
      }
      return sum;
    };
    std::uint64_t unbatched_sum = 0, batched_sum = 0;
    {
      DMapService service(small.graph, small.table, mopts);
      for (const InsertOp& op : mobility.InitialInserts()) {
        (void)service.Insert(op.guid, op.na);
      }
      const auto start = std::chrono::steady_clock::now();
      for (const Handoff& handoff : mobility.Handoffs()) {
        for (const auto& [guid, na] : mobility.MovesFor(handoff)) {
          const UpdateResult r = service.Update(guid, na);
          unbatched_msgs += r.replicas.size();
        }
      }
      unbatched_ms = MsSince(start);
      unbatched_sum = store_checksum(service);
    }
    {
      DMapService service(small.graph, small.table, mopts);
      for (const InsertOp& op : mobility.InitialInserts()) {
        (void)service.Insert(op.guid, op.na);
      }
      const auto start = std::chrono::steady_clock::now();
      for (const Handoff& handoff : mobility.Handoffs()) {
        const BatchUpdateResult r =
            service.BatchUpdate(mobility.MovesFor(handoff));
        batched_msgs += r.messages;
      }
      batched_ms = MsSince(start);
      batched_sum = store_checksum(service);
    }
    mobility_match = unbatched_sum == batched_sum;
  }
  const double msgs_per_handoff_unbatched =
      mobility_handoffs > 0 ? double(unbatched_msgs) / double(mobility_handoffs)
                            : 0.0;
  const double msgs_per_handoff_batched =
      mobility_handoffs > 0 ? double(batched_msgs) / double(mobility_handoffs)
                            : 0.0;
  const double message_reduction =
      batched_msgs > 0 ? double(unbatched_msgs) / double(batched_msgs) : 0.0;
  std::printf("mobility updates: unbatched %.1f msgs/handoff (%.1f ms), "
              "batched %.1f msgs/handoff (%.1f ms), %.1fx fewer, "
              "checksums %s\n",
              msgs_per_handoff_unbatched, unbatched_ms,
              msgs_per_handoff_batched, batched_ms, message_reduction,
              mobility_match ? "match" : "MISMATCH");

  // 5b. Cache-served vs full-probe lookups on the main topology. Both legs
  // serve the identical stream; the answers (found + attachment AS/locator)
  // must agree — the cache changes where the answer comes from, not what it
  // is. TTL 0 = never expires, so the measured loop is all hits.
  const std::uint64_t cache_guids =
      std::min<std::uint64_t>(bench::Scaled(10'000, options.scale), 100'000);
  const std::uint64_t cache_serves = bench::Scaled(200'000, options.scale);
  double probe_ms = 0.0, cached_ms = 0.0;
  std::uint64_t probe_sum = 0, cached_sum = 0;
  std::uint64_t cache_hits = 0;
  {
    const auto populate = [&](DMapService& service) {
      for (std::uint64_t i = 0; i < cache_guids; ++i) {
        (void)service.Insert(Guid::FromSequence(i),
                             NetworkAddress{AsId(i % n), 1});
      }
    };
    const auto serve = [&](DMapService& service, std::uint64_t& sum) {
      for (std::uint64_t i = 0; i < cache_serves; ++i) {
        const Guid guid = Guid::FromSequence(i % cache_guids);
        const LookupResult r = service.Lookup(guid, AsId(i % 16));
        if (r.found) sum += r.nas[0].as + r.nas[0].locator;
      }
    };
    DMapOptions mopts;
    mopts.measure_update_latency = false;
    {
      DMapService service(env.graph, env.table, mopts);
      populate(service);
      const auto start = std::chrono::steady_clock::now();
      serve(service, probe_sum);
      probe_ms = MsSince(start);
    }
    {
      mopts.cache.capacity = 1 << 17;
      mopts.cache.ttl_ms = 0;  // never expires
      DMapService service(env.graph, env.table, mopts);
      populate(service);
      // Warm pass fills every (querier, guid) pair; the serial refresh
      // publishes the fills, so the measured pass runs on snapshot hits.
      std::uint64_t warm_sum = 0;
      serve(service, warm_sum);
      service.RefreshReadSnapshots();
      const auto start = std::chrono::steady_clock::now();
      serve(service, cached_sum);
      cached_ms = MsSince(start);
      cache_hits = service.cache()->hits();
    }
  }
  const bool cache_match = probe_sum == cached_sum;
  const double probe_rps =
      probe_ms > 0 ? double(cache_serves) / (probe_ms / 1000.0) : 0.0;
  const double cached_rps =
      cached_ms > 0 ? double(cache_serves) / (cached_ms / 1000.0) : 0.0;
  const double cache_speedup = cached_ms > 0 ? probe_ms / cached_ms : 0.0;
  std::printf("mobility lookups: full-probe %.1f ms (%.2fM/s), cache-hit "
              "%.1f ms (%.2fM/s), %.1fx, answers %s\n\n",
              probe_ms, probe_rps / 1e6, cached_ms, cached_rps / 1e6,
              cache_speedup, cache_match ? "match" : "MISMATCH");

  // ---- BENCH_perf.json ----------------------------------------------------
  const char* out_path = "BENCH_perf.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"schema\": \"bench_perf.v1\",\n"
      "  \"scale\": %.6f,\n"
      "  \"ases\": %u,\n"
      "  \"links\": %zu,\n"
      "  \"point_queries\": %llu,\n"
      "  \"resolves\": %llu,\n"
      "  \"label_build_ms\": %.3f,\n"
      "  \"label_entries_latency\": %llu,\n"
      "  \"label_entries_hop\": %llu,\n"
      "  \"label_max_latency_label\": %llu,\n"
      "  \"label_max_hop_label\": %llu,\n"
      "  \"point_query_lru_ms\": %.3f,\n"
      "  \"point_query_hub_ms\": %.3f,\n"
      "  \"point_query_speedup\": %.3f,\n"
      "  \"point_query_checksum_match\": %s,\n"
      "  \"resolve_trie_ms\": %.3f,\n"
      "  \"resolve_snapshot_ms\": %.3f,\n"
      "  \"resolve_speedup\": %.3f,\n"
      "  \"resolve_checksum_match\": %s,\n"
      "  \"serving_entries\": %llu,\n"
      "  \"serving_lookups\": %llu,\n"
      "  \"serving_shards\": %u,\n"
      "  \"serving_single_ms\": %.3f,\n"
      "  \"serving_sharded_ms\": %.3f,\n"
      "  \"serving_single_resolves_per_sec\": %.0f,\n"
      "  \"serving_sharded_resolves_per_sec\": %.0f,\n"
      "  \"serving_speedup\": %.3f,\n"
      "  \"serving_checksum_match\": %s,\n"
      "  \"mobility_handoffs\": %llu,\n"
      "  \"mobility_guids_per_host\": %u,\n"
      "  \"mobility_unbatched_msgs_per_handoff\": %.3f,\n"
      "  \"mobility_batched_msgs_per_handoff\": %.3f,\n"
      "  \"mobility_message_reduction\": %.3f,\n"
      "  \"mobility_unbatched_updates_ms\": %.3f,\n"
      "  \"mobility_batched_updates_ms\": %.3f,\n"
      "  \"mobility_checksum_match\": %s,\n"
      "  \"cache_lookups\": %llu,\n"
      "  \"cache_hits\": %llu,\n"
      "  \"cache_probe_ms\": %.3f,\n"
      "  \"cache_hit_ms\": %.3f,\n"
      "  \"cache_probe_serves_per_sec\": %.0f,\n"
      "  \"cache_hit_serves_per_sec\": %.0f,\n"
      "  \"cache_serve_speedup\": %.3f,\n"
      "  \"cache_answer_match\": %s\n"
      "}\n",
      options.scale, n, env.graph.num_links(),
      (unsigned long long)num_queries, (unsigned long long)num_resolves,
      build_ms, (unsigned long long)stats.latency_entries,
      (unsigned long long)stats.hop_entries,
      (unsigned long long)stats.max_latency_label,
      (unsigned long long)stats.max_hop_label, lru_ms, hub_ms,
      hub_ms > 0 ? lru_ms / hub_ms : 0.0, point_match ? "true" : "false",
      trie_ms, snap_ms, snap_ms > 0 ? trie_ms / snap_ms : 0.0,
      resolve_match ? "true" : "false", (unsigned long long)num_entries,
      (unsigned long long)num_serves, serving_shards, single_ms, sharded_ms,
      single_rps, sharded_rps, sharded_ms > 0 ? single_ms / sharded_ms : 0.0,
      serve_match ? "true" : "false",
      (unsigned long long)mobility_handoffs, mobility_guids,
      msgs_per_handoff_unbatched, msgs_per_handoff_batched,
      message_reduction, unbatched_ms, batched_ms,
      mobility_match ? "true" : "false", (unsigned long long)cache_serves,
      (unsigned long long)cache_hits, probe_ms, cached_ms, probe_rps,
      cached_rps, cache_speedup, cache_match ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  // Equivalence failures make the bench fail loudly: the numbers would be
  // comparing engines that disagree. The mobility fast-path floors are
  // structural, not machine-dependent — the message reduction is a count
  // and the serve speedup compares two loops on the same core — so a run
  // below them is a regression, not noise.
  bool ok = point_match && resolve_match && serve_match && mobility_match &&
            cache_match;
  if (message_reduction < 5.0) {
    std::fprintf(stderr,
                 "perf_baseline: batched handoffs saved only %.2fx messages "
                 "(floor 5x)\n",
                 message_reduction);
    ok = false;
  }
  if (cache_speedup < 3.0) {
    std::fprintf(stderr,
                 "perf_baseline: cache-hit serving only %.2fx faster than "
                 "full probing (floor 3x)\n",
                 cache_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
