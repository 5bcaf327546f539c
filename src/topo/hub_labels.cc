#include "topo/hub_labels.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <queue>
#include <utility>

#include "common/rng.h"
#include "runtime/thread_pool.h"

namespace dmap {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Mutable per-worker traversal state, reused across hubs. All arrays are
// reset via the `touched` lists, so per-hub work is proportional to the
// traversal size, not to the graph.
struct Scratch {
  // Dijkstra distance array.
  std::vector<float> dist;
  std::vector<AsId> touched;
  // The current hub's committed label, spread by rank for O(|L(v)|)
  // pruning queries.
  std::vector<float> hub_lat;
  std::vector<std::uint32_t> touched_ranks;

  explicit Scratch(std::uint32_t n) : dist(n, kInf), hub_lat(n, kInf) {}
};

// Folds every node's adjacency (neighbor ids and link-latency bits, in CSR
// order) through SplitMix64, so two graphs with equal node and link counts
// still differ unless their links and latencies match.
std::uint64_t GraphChecksum(const AsGraph& graph) {
  std::uint64_t h = graph.num_nodes();
  const auto fold = [&h](std::uint64_t word) {
    h = SplitMix64(h ^ word).Next();
  };
  for (AsId v = 0; v < graph.num_nodes(); ++v) {
    fold(graph.Degree(v));
    for (const auto& [next, latency] : graph.Neighbors(v)) {
      fold(next);
      fold(std::bit_cast<std::uint64_t>(latency));
    }
  }
  return h;
}

}  // namespace

bool HubLabels::BuiltOver(const AsGraph& graph) const {
  return graph.num_nodes() == num_nodes_ && graph.num_links() == num_links_ &&
         GraphChecksum(graph) == graph_checksum_;
}

HubLabels::HubLabels(const AsGraph& graph, ThreadPool* pool) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint32_t n = graph.num_nodes();
  num_nodes_ = n;
  num_links_ = graph.num_links();
  graph_checksum_ = GraphChecksum(graph);

  // Canonical hub order: degree descending, id ascending. High-degree ASs
  // (the tier-1 core) cover the most shortest paths, which is what keeps
  // pruned-landmark labels short on internet-like topologies.
  order_.resize(n);
  for (AsId v = 0; v < n; ++v) order_[v] = v;
  std::sort(order_.begin(), order_.end(), [&graph](AsId a, AsId b) {
    const std::uint32_t da = graph.Degree(a), db = graph.Degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t r = 0; r < n; ++r) rank[order_[r]] = r;

  // Committed labels, grown batch by batch. Entries per vertex are sorted
  // by rank automatically: batches commit in rank order.
  std::vector<std::vector<std::pair<std::uint32_t, float>>> lat(n);

  const unsigned workers = pool != nullptr ? pool->size() : 1u;
  std::vector<Scratch> scratch(workers, Scratch(n));

  // One hub's pruned Dijkstra. Returns the (vertex, distance) entries this
  // hub contributes, in traversal-settlement order (re-sorted at commit).
  const auto pruned_dijkstra = [&](AsId hub, Scratch& s,
                                   std::vector<std::pair<AsId, float>>& out) {
    out.clear();
    for (const auto& [r, d] : lat[hub]) {
      s.hub_lat[r] = d;
      s.touched_ranks.push_back(r);
    }
    using Item = std::pair<float, AsId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    s.dist[hub] = 0;
    s.touched.push_back(hub);
    heap.emplace(0.0f, hub);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > s.dist[v]) continue;  // stale entry
      // Prune when the committed labels already certify a path of length
      // <= d through an earlier hub: this vertex (and, inductively, the
      // subtree behind it) needs no entry for the current hub.
      float covered = kInf;
      for (const auto& [r, dv] : lat[v]) {
        const float via = s.hub_lat[r] + dv;
        if (via < covered) covered = via;
      }
      if (covered <= d) continue;
      out.emplace_back(v, d);
      for (const auto& [next, latency] : graph.Neighbors(v)) {
        const float nd = d + float(latency);
        if (nd < s.dist[next]) {
          if (s.dist[next] == kInf) s.touched.push_back(next);
          s.dist[next] = nd;
          heap.emplace(nd, next);
        }
      }
    }
    for (const AsId v : s.touched) s.dist[v] = kInf;
    s.touched.clear();
    for (const std::uint32_t r : s.touched_ranks) s.hub_lat[r] = kInf;
    s.touched_ranks.clear();
  };

  // Fixed batches over the canonical order. The per-hub traversals of one
  // batch read only labels committed by earlier batches, so their results
  // do not depend on scheduling; the serial commit below applies them in
  // rank order.
  std::vector<std::vector<std::pair<AsId, float>>> lat_results(kBatchSize);
  for (std::uint32_t begin = 0; begin < n; begin += kBatchSize) {
    const std::uint32_t count =
        std::min<std::uint32_t>(kBatchSize, n - begin);
    const auto run_hub = [&](std::size_t slot, unsigned worker) {
      const AsId hub = order_[begin + slot];
      pruned_dijkstra(hub, scratch[worker], lat_results[slot]);
    };
    if (pool != nullptr) {
      pool->RunChunks(count, run_hub);
    } else {
      for (std::uint32_t slot = 0; slot < count; ++slot) run_hub(slot, 0);
    }
    for (std::uint32_t slot = 0; slot < count; ++slot) {
      const std::uint32_t r = begin + slot;
      for (const auto& [v, d] : lat_results[slot]) lat[v].emplace_back(r, d);
    }
  }

  // Flatten into CSR form.
  latency_offsets_.resize(std::size_t(n) + 1, 0);
  std::uint64_t lat_total = 0;
  for (AsId v = 0; v < n; ++v) {
    latency_offsets_[v] = std::uint32_t(lat_total);
    lat_total += lat[v].size();
    stats_.max_latency_label =
        std::max<std::uint64_t>(stats_.max_latency_label, lat[v].size());
  }
  latency_offsets_[n] = std::uint32_t(lat_total);
  latency_hubs_.reserve(lat_total);
  latency_dists_.reserve(lat_total);
  for (AsId v = 0; v < n; ++v) {
    for (const auto& [r, d] : lat[v]) {
      latency_hubs_.push_back(r);
      latency_dists_.push_back(d);
    }
  }
  stats_.latency_entries = lat_total;
  stats_.build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

}  // namespace dmap
