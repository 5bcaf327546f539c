#include "core/as_hashing.h"

#include <algorithm>
#include <stdexcept>

namespace dmap {

AsHashResolver::AsHashResolver(const GuidHashFamily& hashes,
                               std::uint32_t num_ases)
    : hashes_(&hashes), num_ases_(num_ases) {
  if (num_ases == 0) throw std::invalid_argument("AsHashResolver: no ASs");
}

AsHashResolver::AsHashResolver(const GuidHashFamily& hashes,
                               std::vector<double> weights)
    : hashes_(&hashes), num_ases_(std::uint32_t(weights.size())) {
  if (weights.empty()) {
    throw std::invalid_argument("AsHashResolver: no weights");
  }
  cumulative_.reserve(weights.size());
  double total = 0;
  for (const double w : weights) {
    if (w < 0) {
      throw std::invalid_argument("AsHashResolver: negative weight");
    }
    total += w;
    cumulative_.push_back(total);
  }
  if (total <= 0) {
    throw std::invalid_argument("AsHashResolver: zero total weight");
  }
}

AsId AsHashResolver::Resolve(const Guid& guid, int replica) const {
  // Draw a uniform address and map it onto the AS index space; using the
  // same family keeps the scheme as locally derivable as baseline DMap.
  const std::uint64_t draw =
      (std::uint64_t(hashes_->Hash(guid, replica).value()) << 32) |
      hashes_->Rehash(hashes_->Hash(guid, replica), replica).value();
  if (cumulative_.empty()) {
    return AsId(draw % num_ases_);
  }
  const double u =
      double(draw >> 11) * 0x1.0p-53 * cumulative_.back();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return AsId(it - cumulative_.begin());
}

}  // namespace dmap
