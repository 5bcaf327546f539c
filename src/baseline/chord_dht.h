// Chord-style DHT baseline, modelling the DHT-based mapping schemes the
// paper compares against (DHT-MAP [38], LISP-DHT [10]). Every AS is an
// overlay node on a 64-bit ring; a GUID is stored at the successor of its
// key. Lookups walk the ring with power-of-two fingers — O(log N) overlay
// hops, each a full querier<->node round trip (iterative resolution) — which
// is exactly the latency/maintenance trade-off Section II-B argues against:
// the paper cites ~8 logical hops and ~900 ms for DHT-MAP.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baseline/resolver.h"
#include "common/hash.h"
#include "common/thread_annotations.h"

namespace dmap {

class ChordDht final : public NameResolver {
 public:
  // `oracle` supplies underlay RTTs and must outlive the resolver.
  ChordDht(const AsGraph& graph, PathOracle& oracle,
           std::uint64_t seed = 0xc40d5eedULL);

  std::string name() const override { return "chord-dht"; }

  [[nodiscard]] UpdateResult Insert(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] UpdateResult Update(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] LookupResult Lookup(const Guid& guid, AsId querier) override;

  // The AS responsible for `guid` (successor of its key on the ring).
  AsId OwnerOf(const Guid& guid) const;

  // Overlay route from `from` to the owner of `key`, including the final
  // node. Exposed for tests (hop counts must be O(log N)).
  std::vector<AsId> Route(AsId from, std::uint64_t key) const;

 private:
  std::uint64_t RingId(AsId as) const;
  std::uint64_t KeyOf(const Guid& guid) const;
  // Index into ring_ of the successor of `key`.
  std::size_t SuccessorIndex(std::uint64_t key) const;

  // Iterative-routing cost of reaching the owner of `key` from `from`:
  // every overlay hop is a full underlay round trip from the source.
  double RouteCostMs(AsId from, std::uint64_t key, int* attempts) const;
  UpdateResult Write(const Guid& guid, NetworkAddress na, WriteOp op);

  const AsGraph* graph_;
  PathOracle* oracle_;
  GuidHashFamily hashes_;
  // Ring positions sorted by id; fixed at construction.
  std::vector<std::pair<std::uint64_t, AsId>> ring_;
  std::unordered_map<AsId, std::size_t> ring_index_of_as_;
  // Bulk-loaded before the lookups that read it.
  std::unordered_map<Guid, MappingEntry, GuidHash> entries_
      WRITE_SERIAL_READ_SHARED();
  std::unordered_map<Guid, std::uint64_t, GuidHash> versions_
      WRITE_SERIAL_READ_SHARED();
};

}  // namespace dmap
