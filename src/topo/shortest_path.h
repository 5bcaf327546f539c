// Single-source shortest paths over the AS graph, plus an LRU-cached oracle.
// The evaluation needs RTT(src, dst) for millions of (query source, replica)
// pairs; computing a full all-pairs matrix over 26k nodes is infeasible
// (2.8 GB as floats and minutes of CPU), so the harness groups queries by
// source AS and the oracle memoises per-source distance vectors with an LRU.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "topo/graph.h"

namespace dmap {

class HubLabels;

// Dijkstra over link latencies. dist[v] = one-way latency (ms) over links
// only — intra-AS components are added by the caller, matching the paper's
// response-time decomposition. Unreachable nodes get +infinity.
std::vector<float> DijkstraLatency(const AsGraph& graph, AsId source);

// BFS hop counts (number of inter-AS links traversed). Unreachable nodes get
// kUnreachableHops.
constexpr std::uint16_t kUnreachableHops = 0xffff;
std::vector<std::uint16_t> BfsHops(const AsGraph& graph, AsId source);

// Shared-ownership view of a cached per-source distance vector. Pins the
// data: the handle stays valid even after the owning LRU evicts the entry,
// so callers may hold one across further oracle calls (the dangling-span
// hazard the raw std::span API had).
template <typename T>
class PinnedVector {
 public:
  PinnedVector() = default;
  explicit PinnedVector(std::shared_ptr<const std::vector<T>> data)
      : data_(std::move(data)) {}

  bool valid() const { return data_ != nullptr; }
  std::size_t size() const { return data_ ? data_->size() : 0; }
  const T& operator[](std::size_t i) const { return (*data_)[i]; }
  std::span<const T> span() const {
    return data_ ? std::span<const T>(*data_) : std::span<const T>();
  }

 private:
  std::shared_ptr<const std::vector<T>> data_;
};

// Memoising latency/hop oracle. The LRU caches are sharded: each worker of
// a parallel sweep owns one shard (its `shard` argument), so the hit path
// takes no locks and concurrent calls with distinct shard ids never touch
// shared mutable state. Concurrent calls with the SAME shard id are not
// safe — the experiment harnesses hand worker w shard w. The default
// shard 0 preserves the original single-threaded interface.
class PathOracle {
 public:
  // `capacity` bounds the number of cached source vectors per metric per
  // shard; each vector costs ~4 bytes x num_nodes. One shard until
  // SetNumShards.
  explicit PathOracle(const AsGraph& graph, std::size_t capacity = 64);

  const AsGraph& graph() const { return *graph_; }

  unsigned num_shards() const { return unsigned(shards_.size()); }

  // Re-shards the cache, dropping cached vectors (the totals below are
  // preserved). Must not race with oracle queries.
  void SetNumShards(unsigned num_shards) REQUIRES_ALL_SHARDS();

  // Attaches a hub labeling: latency point queries (LinkLatencyMs/OneWayMs/
  // RttMs/RttsMs) switch to O(|label|) label scans; Hops and full-vector
  // requests keep the BFS/Dijkstra+LRU path. `labels` must outlive the
  // oracle (or be cleared with nullptr) and must be built over this graph
  // — a labeling of any other graph (HubLabels::BuiltOver) throws. The
  // answers are bit-identical to the LRU backend on grid-quantized
  // topologies, so attaching a labeling never changes experiment output,
  // only its speed.
  // RunResponseTimeExperiment/Sweep, RunChurnSweep, RunBaselineComparison,
  // RunOfferedLoadSweep and the chaos/fig9 benches attach one
  // (EnsureHubLabels). Oracles built elsewhere — RunMobilitySweep,
  // RunStalenessExperiment and the services the ablation benches build
  // themselves — answer latency point queries on the Dijkstra+LRU path,
  // which the tests keep as the reference.
  // Must not race with oracle queries.
  void SetHubLabels(const HubLabels* labels) REQUIRES_ALL_SHARDS();
  const HubLabels* hub_labels() const { return labels_; }

  // One-way latency over links from src to dst, ms.
  double LinkLatencyMs(AsId src, AsId dst, unsigned shard = 0)
      REQUIRES_SHARD(shard);

  // Hop count from src to dst, from src's BFS vector behind the shard's
  // LRU (hop counts are not labelled).
  std::uint32_t Hops(AsId src, AsId dst, unsigned shard = 0)
      REQUIRES_SHARD(shard);

  // Full latency vector, pinned: valid for as long as the handle lives,
  // even if later calls evict the entry from the shard's LRU.
  PinnedVector<float> LatenciesFrom(AsId src, unsigned shard = 0)
      REQUIRES_SHARD(shard);

  // End-to-end one-way latency including both intra-AS components:
  //   intra(src) + path(src, dst) + intra(dst);
  // src == dst costs just intra(src), modelling a purely local resolution.
  double OneWayMs(AsId src, AsId dst, unsigned shard = 0)
      REQUIRES_SHARD(shard);

  // Round-trip time: 2 x OneWayMs, the paper's query response time model.
  double RttMs(AsId src, AsId dst, unsigned shard = 0) REQUIRES_SHARD(shard) {
    return 2.0 * OneWayMs(src, dst, shard);
  }

  // One-to-K round trips: out[i] = RttMs(src, dsts[i], shard) for every
  // i < count, bit for bit, from one HubLabels::LatenciesTo pass over src's
  // label (the K replicas a lookup or update ranks share one source).
  // label_queries() rises by `count`, one point query per target. Without
  // labels it is `count` RttMs calls. The label scratch lives in the shard
  // and is sized on the shard's first call; later calls allocate nothing.
  void RttsMs(AsId src, const AsId* dsts, std::size_t count, double* out,
              unsigned shard = 0) REQUIRES_SHARD(shard);

  // Totals across shards. Only meaningful while no worker is running.
  // Cache hits depend on eviction order, which follows the dynamic
  // work-chunk assignment — execution-dependent, not run-deterministic
  // (the *answers* are always identical; only hit/miss accounting varies).
  std::uint64_t dijkstra_runs() const REQUIRES_ALL_SHARDS();
  std::uint64_t bfs_runs() const REQUIRES_ALL_SHARDS();
  std::uint64_t latency_cache_hits() const REQUIRES_ALL_SHARDS();
  std::uint64_t hops_cache_hits() const REQUIRES_ALL_SHARDS();
  std::uint64_t latency_cache_misses() const REQUIRES_ALL_SHARDS() {
    return dijkstra_runs();
  }
  std::uint64_t hops_cache_misses() const REQUIRES_ALL_SHARDS() {
    return bfs_runs();
  }
  // Latency point queries answered by the hub labels (0 while none are
  // set).
  std::uint64_t label_queries() const REQUIRES_ALL_SHARDS();

 private:
  template <typename T>
  struct LruCache {
    using Entry = std::pair<AsId, std::shared_ptr<const std::vector<T>>>;
    std::size_t capacity = 1;
    std::list<Entry> entries;
    std::unordered_map<AsId, typename std::list<Entry>::iterator> index;

    // Returns nullptr on miss; refreshes recency on hit.
    const std::vector<T>* Find(AsId key);
    const std::shared_ptr<const std::vector<T>>& Insert(AsId key,
                                                        std::vector<T> value);
    std::shared_ptr<const std::vector<T>> FindShared(AsId key);
  };

  struct Shard {
    LruCache<float> latencies;
    LruCache<std::uint16_t> hops;
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t bfs_runs = 0;
    std::uint64_t latency_hits = 0;
    std::uint64_t hops_hits = 0;
    std::uint64_t label_queries = 0;
    // RttsMs's hub-rank scratch: empty until the shard's first one-to-K
    // query, then num_nodes floats, all +inf between calls.
    std::vector<float> label_scratch;
  };

  // The shard's label scratch, sized on first use.
  float* LabelScratch(Shard& s);

  // Cached latency vector for `src`, computing it on miss. The reference is
  // only valid until the next insert into the same shard — internal use on
  // the point-query path, which indexes it immediately.
  const std::vector<float>& LatencyVector(AsId src, unsigned shard)
      REQUIRES_SHARD(shard);

  const AsGraph* graph_;
  std::size_t capacity_;
  // Optional hub-label backend for point queries; not owned. Read-only on
  // the query path, so shared freely across shards.
  const HubLabels* labels_ = nullptr;
  // shards_[s] (LRU state and run counters) is touched only by the worker
  // holding shard s; SetNumShards and the totals walk every shard.
  std::vector<std::unique_ptr<Shard>> shards_ SHARD_CONFINED(shard);
  // Runs retired by SetNumShards so the totals survive re-sharding.
  std::uint64_t retired_dijkstra_runs_ = 0;
  std::uint64_t retired_bfs_runs_ = 0;
  std::uint64_t retired_latency_hits_ = 0;
  std::uint64_t retired_hops_hits_ = 0;
  std::uint64_t retired_label_queries_ = 0;
};

}  // namespace dmap
