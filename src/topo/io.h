// Topology serialization: a small line-oriented text format so generated
// topologies can be saved once and replayed across experiment binaries
// (keeping every figure on the identical network, as the paper does with its
// fixed DIMES snapshot).
//
//   dmap-topology v1
//   nodes <n>
//   links <m>
//   node <id> <intra_latency_ms> <end_node_weight>   (n lines)
//   link <a> <b> <latency_ms>                         (m lines)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "topo/graph.h"

namespace dmap {

// Header bounds: LoadTopology sizes its per-node vectors from `nodes` and
// reserves its link list from `links`, so larger counts are rejected before
// anything is allocated. The paper's snapshot has 26,424 ASs.
inline constexpr std::uint32_t kMaxTopologyNodes = 1'000'000;
inline constexpr std::uint64_t kMaxTopologyLinks = 8'000'000;

void SaveTopology(const AsGraph& graph, std::ostream& out);
void SaveTopologyToFile(const AsGraph& graph, const std::string& path);

// Throws std::runtime_error with a line-number diagnostic on parse errors,
// including a header count past its bound.
AsGraph LoadTopology(std::istream& in);
AsGraph LoadTopologyFromFile(const std::string& path);

}  // namespace dmap
