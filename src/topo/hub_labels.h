// Exact 2-hop hub labeling (pruned-landmark style, Akiba/Iwata/Yoshida) over
// the AS graph, for the latency metric. Built once per topology; a point
// latency query is then a merge of two short sorted label arrays — no SSSP,
// no lock, no cache — which replaces the per-source Dijkstra that dominates
// every response-time, churn and chaos sweep (see PathOracle in
// topo/shortest_path.h for the consumer). Hop counts are not labelled: only
// the fewest-hops replica ranking reads them, and PathOracle::Hops answers
// it from BFS vectors behind its per-shard LRU.
//
// Construction is deterministic and parallel: vertices are ranked by
// (degree descending, id ascending) and processed in FIXED batches of
// kBatchSize hubs. Within a batch every hub runs its pruned Dijkstra
// against the labels committed by *previous* batches only, so the result of
// each hub's traversal is independent of the worker that ran it and of the
// worker count — labels are byte-identical for any `--threads` value.
// Pruning against a slightly stale label set only ever ADDS entries (a
// pruned-landmark label stays exact whenever the pruning test is
// conservative), so batching trades a few percent of label size for
// deterministic parallelism.
//
// Exactness: for the highest-ranked vertex h on a shortest u-v path, h's
// pruned traversal cannot be pruned at u or v (any covering pair of label
// entries would itself be a shortest path through a higher-ranked hub), so
// (h, d(h,u)) ∈ L(u) and (h, d(h,v)) ∈ L(v) and the label merge returns
// d(u,v) exactly. With link latencies on the 1/64 ms grid the topology
// generator emits (topo/graph.h QuantizeLatencyMs), every float path sum is
// exact, so the merge returns bit-identically the same float as
// DijkstraLatency — the property the labels-vs-Dijkstra equivalence tests
// (hub_labels_test, dmap_service_test, network_test) lock in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_annotations.h"
#include "topo/graph.h"

namespace dmap {

class ThreadPool;

class HubLabels {
 public:
  // Hubs labeled together per parallel round. Part of the label definition
  // (changing it changes the — still exact — labels), hence a fixed
  // constant rather than a tuning knob: labels must not depend on the
  // machine or the thread count.
  static constexpr std::size_t kBatchSize = 16;

  struct BuildStats {
    std::uint64_t latency_entries = 0;    // total label entries
    std::uint64_t max_latency_label = 0;  // largest single-vertex label
    double build_ms = 0.0;  // wall time; observability only, never exported
                            // as a stable metric (kExecution)
  };

  // Builds the labeling. `pool` parallelizes construction (nullptr = the
  // calling thread only); the labels are byte-identical either way.
  explicit HubLabels(const AsGraph& graph, ThreadPool* pool = nullptr);

  std::uint32_t num_nodes() const { return num_nodes_; }
  const BuildStats& stats() const { return stats_; }

  // One-way latency over links from u to v, ms, as a float — bit-identical
  // to DijkstraLatency(graph, u)[v] for grid-quantized latencies.
  // +infinity when unreachable; 0 when u == v.
  float LatencyMs(AsId u, AsId v) const DMAP_HOT_PATH {
    if (u == v) return 0.0f;
    float best = std::numeric_limits<float>::infinity();
    std::uint32_t i = latency_offsets_[u], j = latency_offsets_[v];
    const std::uint32_t iend = latency_offsets_[u + 1];
    const std::uint32_t jend = latency_offsets_[v + 1];
    while (i < iend && j < jend) {
      const std::uint32_t ri = latency_hubs_[i], rj = latency_hubs_[j];
      if (ri == rj) {
        const float d = latency_dists_[i] + latency_dists_[j];
        if (d < best) best = d;
        ++i;
        ++j;
      } else if (ri < rj) {
        ++i;
      } else {
        ++j;
      }
    }
    return best;
  }

  // One-to-K form of LatencyMs: out[t] = LatencyMs(u, targets[t]) for every
  // t < count, bit for bit. `scratch` is caller-owned: num_nodes() floats
  // indexed by hub rank, all +infinity on entry and again on return.
  //
  // u's label is written into `scratch` once; each target's label is then
  // scanned once, taking the min of scratch[h] + d(h, v). A hub both labels
  // share adds the same two floats LatencyMs adds (IEEE addition commutes
  // exactly); a hub only v carries reads +inf, and inf + d never wins the
  // strict `<`. So every target sees the minimum of the same sums, in the
  // same ascending-rank order — the same float, +inf when unreachable, and
  // 0 for u itself. One label write replaces K merges of u's label.
  void LatenciesTo(AsId u, const AsId* targets, std::size_t count, float* out,
                   float* scratch) const DMAP_HOT_PATH {
    const std::uint32_t ubegin = latency_offsets_[u];
    const std::uint32_t uend = latency_offsets_[u + 1];
    for (std::uint32_t i = ubegin; i < uend; ++i) {
      scratch[latency_hubs_[i]] = latency_dists_[i];
    }
    for (std::size_t t = 0; t < count; ++t) {
      const AsId v = targets[t];
      if (v == u) {
        out[t] = 0.0f;
        continue;
      }
      float best = std::numeric_limits<float>::infinity();
      const std::uint32_t jend = latency_offsets_[v + 1];
      for (std::uint32_t j = latency_offsets_[v]; j < jend; ++j) {
        const float d = scratch[latency_hubs_[j]] + latency_dists_[j];
        if (d < best) best = d;
      }
      out[t] = best;
    }
    for (std::uint32_t i = ubegin; i < uend; ++i) {
      scratch[latency_hubs_[i]] = std::numeric_limits<float>::infinity();
    }
  }

  // True when `graph` is the graph these labels were built over: the same
  // node and link counts and the same checksum of the CSR adjacency and its
  // link latencies. Labels over any other graph answer wrong distances.
  bool BuiltOver(const AsGraph& graph) const;

  // Raw label arrays in canonical (CSR) form. The determinism test byte-
  // compares these across thread counts; exposing them also lets benches
  // report label sizes without friend access.
  const std::vector<std::uint32_t>& latency_offsets() const {
    return latency_offsets_;
  }
  const std::vector<std::uint32_t>& latency_hubs() const {
    return latency_hubs_;
  }
  const std::vector<float>& latency_dists() const { return latency_dists_; }

  // The canonical (degree-descending, id-ascending) hub order; order_[r] is
  // the AS with rank r.
  const std::vector<AsId>& hub_order() const { return order_; }

 private:
  std::uint32_t num_nodes_ = 0;
  std::size_t num_links_ = 0;
  std::uint64_t graph_checksum_ = 0;  // GraphChecksum of the build graph
  std::vector<AsId> order_;  // rank -> vertex

  // Per-vertex labels, flattened: entries for vertex v live in
  // [offsets[v], offsets[v+1]), sorted by hub rank (ascending). Hub arrays
  // and distance arrays are split (SoA) so the query merge touches the
  // distances only on rank matches.
  std::vector<std::uint32_t> latency_offsets_;
  std::vector<std::uint32_t> latency_hubs_;
  std::vector<float> latency_dists_;

  BuildStats stats_;
};

}  // namespace dmap
