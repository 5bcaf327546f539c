// AS-level network topology. Nodes are Autonomous Systems; undirected edges
// are inter-AS links weighted with one-way latency in milliseconds. Each AS
// additionally carries an intra-AS latency (the cost from an end host to the
// AS border, per the DIMES methodology the paper uses) and an end-node
// weight used to bias where queries originate.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dmap {

using AsId = std::uint32_t;
constexpr AsId kInvalidAs = ~AsId{0};

// The latency grid: link latencies emitted by the topology generators are
// snapped to multiples of 1/64 ms (and clamped to at least one grid step).
// Multiples of 2^-6 below 2^18 ms sum EXACTLY in float arithmetic (24-bit
// mantissa), so the length of a path is independent of summation order and
// "shortest path distance" is a well-defined quantity rather than a
// property of one particular Dijkstra implementation. This is what lets the
// hub-label distance oracle (topo/hub_labels.h) return bit-identically the
// same floats as DijkstraLatency, so attaching labels never changes a
// result. The quantization error (<= 1/128 ms) is far below the
// generator's own modelling error.
constexpr double kLatencyGridMs = 0.015625;  // 1/64 ms
inline double QuantizeLatencyMs(double latency_ms) {
  const double steps = latency_ms / kLatencyGridMs;
  // Round-half-up on the grid; never below one step so weights stay
  // strictly positive (hub labeling requires positive weights).
  const double snapped = static_cast<double>(
      static_cast<long long>(steps + 0.5));
  return (snapped < 1.0 ? 1.0 : snapped) * kLatencyGridMs;
}

struct AsLink {
  AsId a;
  AsId b;
  double latency_ms;  // one-way
};

// Immutable compressed-sparse-row adjacency built once from an edge list.
class AsGraph {
 public:
  AsGraph(std::uint32_t num_nodes, std::span<const AsLink> links,
          std::vector<double> intra_latency_ms,
          std::vector<double> end_node_weight);

  std::uint32_t num_nodes() const { return num_nodes_; }
  std::size_t num_links() const { return links_.size(); }

  struct Neighbor {
    AsId id;
    double latency_ms;
  };
  std::span<const Neighbor> Neighbors(AsId node) const {
    return {adjacency_.data() + offsets_[node],
            adjacency_.data() + offsets_[node + 1]};
  }
  std::uint32_t Degree(AsId node) const {
    return offsets_[node + 1] - offsets_[node];
  }

  // True if an (a, b) link exists. O(log degree(a)) — the adjacency of each
  // node is kept sorted by neighbor id.
  bool HasEdge(AsId a, AsId b) const;

  double IntraLatencyMs(AsId node) const { return intra_latency_ms_[node]; }
  double EndNodeWeight(AsId node) const { return end_node_weight_[node]; }
  const std::vector<double>& end_node_weights() const {
    return end_node_weight_;
  }

  const std::vector<AsLink>& links() const { return links_; }
  const std::vector<double>& intra_latencies() const {
    return intra_latency_ms_;
  }

 private:
  std::uint32_t num_nodes_;
  std::vector<AsLink> links_;
  std::vector<std::uint32_t> offsets_;  // size num_nodes + 1
  std::vector<Neighbor> adjacency_;
  std::vector<double> intra_latency_ms_;
  std::vector<double> end_node_weight_;
};

}  // namespace dmap
