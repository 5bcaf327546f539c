#include "baseline/chord_dht.h"

#include <algorithm>

namespace dmap {

ChordDht::ChordDht(const AsGraph& graph, PathOracle& oracle,
                   std::uint64_t seed)
    : graph_(&graph), oracle_(&oracle), hashes_(1, seed) {
  ring_.reserve(graph.num_nodes());
  for (AsId as = 0; as < graph.num_nodes(); ++as) {
    ring_.emplace_back(RingId(as), as);
  }
  std::sort(ring_.begin(), ring_.end());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_index_of_as_[ring_[i].second] = i;
  }
}

std::uint64_t ChordDht::RingId(AsId as) const {
  const std::uint8_t bytes[4] = {
      std::uint8_t(as >> 24), std::uint8_t(as >> 16), std::uint8_t(as >> 8),
      std::uint8_t(as)};
  return hashes_.Hash64(bytes, 0);
}

std::uint64_t ChordDht::KeyOf(const Guid& guid) const {
  return guid.Fingerprint64();
}

std::size_t ChordDht::SuccessorIndex(std::uint64_t key) const {
  // First ring node with id >= key, wrapping.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<std::uint64_t, AsId>& e, std::uint64_t k) {
        return e.first < k;
      });
  return it == ring_.end() ? 0 : std::size_t(it - ring_.begin());
}

AsId ChordDht::OwnerOf(const Guid& guid) const {
  return ring_[SuccessorIndex(KeyOf(guid))].second;
}

std::vector<AsId> ChordDht::Route(AsId from, std::uint64_t key) const {
  // Classic Chord: jump to the farthest finger that does not overshoot the
  // key, halving the remaining ring distance each hop.
  std::vector<AsId> hops;
  const std::size_t n = ring_.size();
  const std::size_t target = SuccessorIndex(key);
  std::size_t current = ring_index_of_as_.at(from);

  while (current != target) {
    // Remaining clockwise distance in ring positions.
    const std::size_t remaining = (target + n - current) % n;
    // Fingers of node i point at successor(id_i + 2^j); with ids uniform,
    // that is approximately the node (i + n/2^(64-j)) — we model fingers
    // positionally: the largest power-of-two position jump <= remaining.
    std::size_t jump = 1;
    while (jump * 2 <= remaining) jump *= 2;
    current = (current + jump) % n;
    hops.push_back(ring_[current].second);
  }
  if (hops.empty() || hops.back() != ring_[target].second) {
    hops.push_back(ring_[target].second);
  }
  return hops;
}

double ChordDht::RouteCostMs(AsId from, std::uint64_t key,
                             int* attempts) const {
  double cost = 0.0;
  for (const AsId hop : Route(from, key)) {
    if (attempts != nullptr) ++*attempts;
    cost += oracle_->RttMs(from, hop);
  }
  return cost;
}

UpdateResult ChordDht::Write(const Guid& guid, NetworkAddress na,
                             WriteOp op) {
  UpdateResult result;
  result.version = ++versions_[guid];
  entries_[guid] = MappingEntry{NaSet(na), result.version};
  result.latency_ms = RouteCostMs(na.as, KeyOf(guid), &result.attempts);
  result.replicas = {OwnerOf(guid)};
  FinishWrite(op, result);
  return result;
}

UpdateResult ChordDht::Insert(const Guid& guid, NetworkAddress na) {
  return Write(guid, na, WriteOp::kInsert);
}

UpdateResult ChordDht::Update(const Guid& guid, NetworkAddress na) {
  if (!entries_.contains(guid)) {
    throw std::invalid_argument("ChordDht::Update: unknown GUID");
  }
  return Write(guid, na, WriteOp::kUpdate);
}

LookupResult ChordDht::Lookup(const Guid& guid, AsId querier) {
  LookupResult result;
  ProbeTrace* trace = StartTrace(result, 'L', guid, querier);
  double cost = 0.0;
  const std::vector<AsId> route = Route(querier, KeyOf(guid));
  for (const AsId hop : route) {
    ++result.attempts;
    const double rtt = oracle_->RttMs(querier, hop);
    cost += rtt;
    if (trace) {
      // Intermediate hops only redirect — recorded as misses; the final
      // hop's outcome is patched below once found/not-found is known.
      trace->probes.push_back(ProbeEvent{hop, rtt, ProbeOutcome::kMiss});
    }
  }
  result.latency_ms = cost;
  const auto it = entries_.find(guid);
  if (it != entries_.end()) {
    result.found = true;
    result.nas = it->second.nas;
    result.serving_as = route.empty() ? querier : route.back();
    if (trace && !trace->probes.empty()) {
      trace->probes.back().outcome = ProbeOutcome::kHit;
    }
  }
  FinishLookup(result);
  return result;
}

}  // namespace dmap
