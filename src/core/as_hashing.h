// Direct-to-AS-number placement — the variation the paper flags as future
// work in Section VII ("GUIDs can be hashed directly to AS numbers or
// allocation sizes can be varied to reflect economic incentives").
//
// Instead of hashing onto the address space (which distributes load
// proportionally to announced address share and needs the IP-hole
// procedure), each GUID replica is hashed uniformly over the AS index
// space. There are no holes by construction — but the storage load lands
// equally on every AS regardless of its size, which is exactly the
// trade-off the ablation bench quantifies against baseline DMap.
#pragma once

#include <vector>

#include "common/guid.h"
#include "common/hash.h"
#include "topo/graph.h"

namespace dmap {

class AsHashResolver {
 public:
  // Hashes onto [0, num_ases). `weights` optionally skews placement (the
  // "allocation sizes varied to reflect economic incentives" variant):
  // when given, AS i is chosen with probability weights[i] / sum(weights).
  AsHashResolver(const GuidHashFamily& hashes, std::uint32_t num_ases);
  AsHashResolver(const GuidHashFamily& hashes,
                 std::vector<double> weights);

  int k() const { return hashes_->k(); }
  std::uint32_t num_ases() const { return num_ases_; }

  AsId Resolve(const Guid& guid, int replica) const;

 private:
  const GuidHashFamily* hashes_;
  std::uint32_t num_ases_;
  // Cumulative weight table for the skewed variant; empty = uniform.
  std::vector<double> cumulative_;
};

}  // namespace dmap
