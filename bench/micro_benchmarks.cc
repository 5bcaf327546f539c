// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: the K-hash family, LPM trie operations (the per-query router
// fast path the paper budgets ~100 instructions for), nearest-announced
// queries, Algorithm 1 resolution, the event queue, Dijkstra SSSP, and the
// mapping store.
#include <benchmark/benchmark.h>

#include <atomic>

#include "bgp/dir24_8.h"
#include "bgp/prefix_gen.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/dmap_service.h"
#include "core/hole_resolver.h"
#include "core/mapping_store.h"
#include "event/simulator.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "runtime/thread_pool.h"
#include "sim/environment.h"
#include "topo/generator.h"
#include "topo/hub_labels.h"
#include "topo/shortest_path.h"

namespace dmap {
namespace {

const PrefixTable& SharedTable() {
  static const PrefixTable table = [] {
    PrefixGenParams params;
    params.num_ases = 26424;
    return GeneratePrefixTable(params);
  }();
  return table;
}

void BM_SipHash_Guid(benchmark::State& state) {
  const GuidHashFamily family(5, 1);
  const Guid guid = Guid::FromSequence(42);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.Hash(guid, i));
    i = (i + 1) % 5;
  }
}
BENCHMARK(BM_SipHash_Guid);

void BM_Sha1_PublicKey(benchmark::State& state) {
  std::vector<std::uint8_t> key(std::size_t(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(key));
  }
}
BENCHMARK(BM_Sha1_PublicKey)->Arg(32)->Arg(256)->Arg(2048);

void BM_LpmLookup(benchmark::State& state) {
  const PrefixTable& table = SharedTable();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(Ipv4Address(std::uint32_t(rng.Next()))));
  }
}
BENCHMARK(BM_LpmLookup);

void BM_LpmLookupDir24_8(benchmark::State& state) {
  // The router fast path the paper budgets ~100 instructions (~30 ns on a
  // 3 GHz core) for — the direct-indexed table should hit that ballpark.
  static const Dir24_8 fast(SharedTable());
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fast.Lookup(Ipv4Address(std::uint32_t(rng.Next()))));
  }
}
BENCHMARK(BM_LpmLookupDir24_8);

void BM_NearestAnnounced(benchmark::State& state) {
  const PrefixTable& table = SharedTable();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.NearestAnnounced(Ipv4Address(std::uint32_t(rng.Next()))));
  }
}
BENCHMARK(BM_NearestAnnounced);

void BM_AnnounceWithdraw(benchmark::State& state) {
  PrefixTable table = SharedTable();
  std::uint32_t base = 0x0b000000;
  for (auto _ : state) {
    const Cidr prefix(Ipv4Address(base), 24);
    // The 10/8 block is reserved, hence never announced by the generator.
    benchmark::DoNotOptimize(table.Announce(prefix, 1));
    benchmark::DoNotOptimize(table.Withdraw(prefix));
    base += 256;
    if (base >= 0x0bffff00) base = 0x0b000000;
  }
}
BENCHMARK(BM_AnnounceWithdraw);

void BM_HoleResolverResolve(benchmark::State& state) {
  const PrefixTable& table = SharedTable();
  const GuidHashFamily family(5, 1);
  const HoleResolver resolver(family, table, int(state.range(0)));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resolver.Resolve(Guid::FromSequence(seq), int(seq % 5)));
    ++seq;
  }
}
BENCHMARK(BM_HoleResolverResolve)->Arg(1)->Arg(10);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(SimTime::Millis(double((i * 7919) % 1000)), [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_Dijkstra(benchmark::State& state) {
  static const AsGraph graph = GenerateInternetTopology(
      ScaledTopologyParams(std::uint32_t(state.range(0)), 3));
  AsId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DijkstraLatency(graph, src));
    src = (src + 1) % graph.num_nodes();
  }
}
BENCHMARK(BM_Dijkstra)->Arg(5000);

void BM_HubLabelQuery(benchmark::State& state) {
  // One exact point-distance query as a sorted-label merge — the operation
  // that replaces an amortised Dijkstra in the harness hot loops. Compare
  // against BM_Dijkstra / its per-query amortisation.
  static const AsGraph graph = GenerateInternetTopology(
      ScaledTopologyParams(5000, 3));
  static const HubLabels labels = [] {
    ThreadPool pool(0);
    return HubLabels(graph, &pool);
  }();
  Rng rng(3);
  for (auto _ : state) {
    const AsId u = AsId(rng.Next() % graph.num_nodes());
    const AsId v = AsId(rng.Next() % graph.num_nodes());
    benchmark::DoNotOptimize(labels.LatencyMs(u, v));
  }
}
BENCHMARK(BM_HubLabelQuery);

void BM_HubLabelBuild(benchmark::State& state) {
  // Full pruned-landmark build (latency + hop labels) over the pool — the
  // one-time topology-load cost the point queries amortise.
  static const AsGraph graph = GenerateInternetTopology(
      ScaledTopologyParams(std::uint32_t(state.range(0)), 3));
  ThreadPool pool(0);
  for (auto _ : state) {
    const HubLabels labels(graph, &pool);
    benchmark::DoNotOptimize(labels.stats().latency_entries);
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(graph.num_nodes()));
}
BENCHMARK(BM_HubLabelBuild)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ResolveSnapshot(benchmark::State& state) {
  // Algorithm 1 with the owned epoch-versioned DIR-24-8 snapshot armed —
  // the fast path against BM_HoleResolverResolve's trie walk.
  const PrefixTable& table = SharedTable();
  const GuidHashFamily family(5, 1);
  HoleResolver resolver(family, table, int(state.range(0)));
  resolver.EnableSnapshot();
  resolver.RefreshSnapshot();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resolver.Resolve(Guid::FromSequence(seq), int(seq % 5)));
    ++seq;
  }
}
BENCHMARK(BM_ResolveSnapshot)->Arg(1)->Arg(10);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Cost of one RunChunks dispatch with near-empty chunks: the fixed
  // fan-out/join overhead a partitioned experiment pays per pass. With one
  // worker this is the sequential fast path (a plain loop).
  ThreadPool pool(unsigned(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.RunChunks(64, [&](std::size_t chunk, unsigned) {
      sink.fetch_add(chunk, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelSssp(benchmark::State& state) {
  // Parallel-vs-serial SSSP throughput: 32 single-source runs spread over
  // the pool — the dominant kernel of the experiment harnesses. Speedup vs
  // Arg(1) shows the scaling headroom on multi-core hosts.
  static const AsGraph graph =
      GenerateInternetTopology(ScaledTopologyParams(2000, 3));
  ThreadPool pool(unsigned(state.range(0)));
  for (auto _ : state) {
    pool.ParallelFor(0, 32, [&](std::size_t i, unsigned) {
      benchmark::DoNotOptimize(
          DijkstraLatency(graph, AsId(i * 61 % graph.num_nodes())));
    });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ParallelSssp)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_DMapLookupObservability(benchmark::State& state) {
  // Instrumentation overhead on the end-to-end lookup path.
  //   Arg(0): observability off (null metrics/tracer pointers)
  //   Arg(1): metrics registry attached
  //   Arg(2): metrics + tracer (1/8 GUID sampling, events materialised)
  // Acceptance bar: Arg(0) must match the pre-instrumentation baseline —
  // the `if (metrics_)` / `if (tracer_)` guards are all a disabled run pays.
  static const SimEnvironment& env = [] () -> const SimEnvironment& {
    static SimEnvironment e =
        BuildEnvironment(EnvironmentParams::Scaled(2000));
    return e;
  }();
  DMapOptions service_options;
  service_options.measure_update_latency = false;
  DMapService service(env.graph, env.table, service_options);
  MetricsRegistry registry;
  ProbeTracer tracer(1u, 8);
  if (state.range(0) >= 1) service.SetMetrics(&registry);
  if (state.range(0) >= 2) service.SetTracer(&tracer);
  constexpr std::uint64_t kGuids = 10'000;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    (void)service.Insert(Guid::FromSequence(i),
                         NetworkAddress{AsId(i % env.graph.num_nodes()), 1});
  }
  // A small querier set keeps the oracle cache hot so the benchmark
  // measures the lookup path, not Dijkstra.
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.Lookup(Guid::FromSequence(seq % kGuids), AsId(seq % 16)));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DMapLookupObservability)->Arg(0)->Arg(1)->Arg(2);

void BM_MappingStoreUpsertLookup(benchmark::State& state) {
  MappingStore store;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    store.Upsert(Guid::FromSequence(i),
                 MappingEntry{NaSet(NetworkAddress{AsId(i % 1000), 1}), 1});
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Lookup(Guid::FromSequence(seq % 100000)));
    ++seq;
  }
}
BENCHMARK(BM_MappingStoreUpsertLookup);

void BM_BatchedKHash(benchmark::State& state) {
  // All-K hashing: the interleaved multi-lane SipHash kernel behind
  // HashAllInto, against K scalar BM_SipHash_Guid calls. Items = replica
  // hashes, so items/sec is directly comparable to BM_SipHash_Guid.
  const int k = int(state.range(0));
  const GuidHashFamily family(k, 1);
  std::vector<Ipv4Address> out(16);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    family.HashAllInto(Guid::FromSequence(seq), out.data());
    benchmark::DoNotOptimize(out.data());
    ++seq;
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_BatchedKHash)->Arg(3)->Arg(5)->Arg(8);

void BM_ShardedLookup(benchmark::State& state) {
  // Read path of the sharded store. Arg = shard count.
  const unsigned shards = unsigned(state.range(0));
  ShardedMappingStore store(1000, shards);
  constexpr std::uint64_t kEntries = 100'000;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    store.Upsert(AsId(i % 1000), Guid::FromSequence(i),
                 MappingEntry{NaSet(NetworkAddress{AsId(i % 1000), 1}), 1});
  }
  store.RefreshSnapshots();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Read(AsId(seq % 1000), Guid::FromSequence(seq % kEntries)));
    ++seq;
  }
}
BENCHMARK(BM_ShardedLookup)->Arg(1)->Arg(4)->Arg(16);

void BM_UpsertAndPublish(benchmark::State& state) {
  // Cost of one serial write point: 1024 in-place upserts into a loaded
  // store, then the publish that makes them the read state. The publish
  // only records the written shards' epochs, so items/sec is the upsert
  // rate. Arg = shard count.
  const unsigned shards = unsigned(state.range(0));
  ShardedMappingStore store(1000, shards);
  constexpr std::uint64_t kEntries = 100'000;
  constexpr std::uint64_t kWrites = 1024;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    store.Upsert(AsId(i % 1000), Guid::FromSequence(i),
                 MappingEntry{NaSet(NetworkAddress{AsId(i % 1000), 1}), 1});
  }
  store.RefreshSnapshots();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < kWrites; ++w, ++seq) {
      store.Upsert(AsId(seq % 1000), Guid::FromSequence(seq % kEntries),
                   MappingEntry{NaSet(NetworkAddress{AsId(seq % 7), 1}),
                                std::uint32_t(2 + seq)});
    }
    store.RefreshSnapshots();
    benchmark::DoNotOptimize(store.snapshots_fresh());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kWrites));
}
BENCHMARK(BM_UpsertAndPublish)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_BatchUpdate(benchmark::State& state) {
  // One batched handoff vs the equivalent sequential updates. Arg = GUIDs
  // per batch; items = GUID moves, so items/sec compares directly across
  // batch sizes (the store outcome is bit-identical for all of them).
  static const SimEnvironment& env = [] () -> const SimEnvironment& {
    static SimEnvironment e = BuildEnvironment(EnvironmentParams::Scaled(2000));
    return e;
  }();
  const int batch = int(state.range(0));
  DMapOptions service_options;
  service_options.measure_update_latency = false;
  DMapService service(env.graph, env.table, service_options);
  std::vector<std::pair<Guid, NetworkAddress>> moves{std::size_t(batch)};
  for (int i = 0; i < batch; ++i) {
    moves[std::size_t(i)] = {Guid::FromSequence(std::uint64_t(i)),
                             NetworkAddress{AsId(1), 1}};
    (void)service.Insert(moves[std::size_t(i)].first,
                         moves[std::size_t(i)].second);
  }
  std::uint32_t locator = 2;
  for (auto _ : state) {
    const AsId as = AsId(locator % env.graph.num_nodes());
    for (auto& [guid, na] : moves) na = NetworkAddress{as, locator};
    benchmark::DoNotOptimize(service.BatchUpdate(moves));
    ++locator;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchUpdate)->Arg(1)->Arg(8)->Arg(64);

void BM_CacheHit(benchmark::State& state) {
  // The cache-served lookup path (snapshot probe + one intra-AS round
  // trip) against BM_DMapLookupObservability's full probe path. Arg =
  // cache shard count.
  static const SimEnvironment& env = [] () -> const SimEnvironment& {
    static SimEnvironment e = BuildEnvironment(EnvironmentParams::Scaled(2000));
    return e;
  }();
  DMapOptions service_options;
  service_options.measure_update_latency = false;
  service_options.cache.capacity = 1 << 16;
  service_options.cache.ttl_ms = 0;  // never expires
  service_options.cache.shards = int(state.range(0));
  DMapService service(env.graph, env.table, service_options);
  constexpr std::uint64_t kGuids = 10'000;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    (void)service.Insert(Guid::FromSequence(i),
                         NetworkAddress{AsId(i % env.graph.num_nodes()), 1});
  }
  // Warm pass: every (querier, guid) pair misses once and fills; the
  // measured loop then runs entirely on snapshot hits.
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    benchmark::DoNotOptimize(
        service.Lookup(Guid::FromSequence(i), AsId(i % 16)));
  }
  service.RefreshReadSnapshots();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.Lookup(Guid::FromSequence(seq % kGuids), AsId(seq % 16)));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit)->Arg(1)->Arg(8);

}  // namespace
}  // namespace dmap

BENCHMARK_MAIN();
