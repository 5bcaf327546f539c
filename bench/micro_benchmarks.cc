// Microbenchmarks (google-benchmark) for the primitives no dmapbench replay
// leg times: SHA-1 and scalar SipHash, LPM trie vs DIR-24-8 lookups,
// nearest-announced queries, announce/withdraw, the trie-walk Algorithm 1,
// the hub-label build, thread-pool dispatch, parallel SSSP and the
// single-AS mapping store. dmapbench's per-layer metrics (bench/perf/
// layers.cc) time the rest: batched K-hash (hash.ns_per_call), the snapshot
// resolve (algo1.ns_per_resolve), hub-label and Dijkstra queries
// (oracle.point_ns, oracle.vector_ns), sharded store reads, upserts and
// publishes (store.read_ns, store.upsert_ns, store.refresh_ms), cache hits
// (cache.probe_ns), DMapService lookups with and without tracing
// (dmap.lookup_ns, trace.overhead_frac), batched handoffs
// (dmap.batch_ns_per_guid) and event dispatch (sim.dispatch_ns).
#include <benchmark/benchmark.h>

#include <atomic>

#include "bgp/dir24_8.h"
#include "bgp/prefix_gen.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/hole_resolver.h"
#include "core/mapping_store.h"
#include "runtime/thread_pool.h"
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

void BM_HoleResolverResolveAll(benchmark::State& state) {
  const PrefixTable& table = SharedTable();
  const GuidHashFamily family(5, 1);
  const HoleResolver resolver(family, table, int(state.range(0)));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.ResolveAll(Guid::FromSequence(seq)));
    ++seq;
  }
}
BENCHMARK(BM_HoleResolverResolveAll)->Arg(1)->Arg(10);

void BM_HubLabelBuild(benchmark::State& state) {
  // Full pruned-landmark latency-label build over the pool — the
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

}  // namespace
}  // namespace dmap

BENCHMARK_MAIN();
