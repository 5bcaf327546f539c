// Algorithm 1 of the paper: map a GUID (replica index i) to the AS that
// will host the mapping, handling IP holes. The border gateway hashes the
// GUID; if the address is announced, the LPM owner hosts the replica. If it
// falls in a hole, the result is rehashed up to M - 1 times; if every try
// misses, the "deputy AS" is the one announcing the address with minimum IP
// distance to the last hashed value.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bgp/dir24_8.h"
#include "bgp/prefix_table.h"
#include "common/guid.h"
#include "common/hash.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"

namespace dmap {

struct HostResolution {
  AsId host = kInvalidAs;
  Ipv4Address hashed_address;   // the last value produced by the hash chain
  Ipv4Address stored_address;   // the announced address actually used
  int hash_count = 1;           // total hash evaluations (1 = first try hit)
  bool used_nearest = false;    // fell through all M tries to the deputy rule
};

// A GUID's K resolutions, kept with the prefix-table epoch they were
// resolved at. Equal epochs imply an identical announced set, so while the
// table is still at `epoch` they are exactly what Algorithm 1 computes.
// HoleResolver::ResolveOrReuse is the one rule that reads it.
struct ResolutionMemo {
  std::vector<HostResolution> resolutions;  // empty until first kept
  std::uint64_t epoch = 0;
};

class HoleResolver {
 public:
  // `table` must outlive the resolver. M is the maximum number of hash
  // evaluations (the paper's "M rehashes"; M = 10 gives a 0.034% fall-
  // through probability at a 55% announced fraction).
  HoleResolver(const GuidHashFamily& hashes, const PrefixTable& table,
               int max_hashes = 10);

  int k() const { return hashes_->k(); }
  int max_hashes() const { return max_hashes_; }

  // The K replica resolutions of `guid`: element i is where replica i is
  // hosted. Deterministic: every border gateway with the same prefix table
  // computes the same answer. `worker` selects the metrics slab when
  // instrumentation is on — parallel callers must pass their worker id; it
  // never affects the resolutions themselves. The K hash chains are
  // evaluated as a wavefront with the batched SipHash kernels
  // (GuidHashFamily::HashAllInto / RehashManyInto), so the per-replica hash
  // latency overlaps.
  [[nodiscard]] std::vector<HostResolution> ResolveAll(
      const Guid& guid, unsigned worker = 0) const;

  // Batch form of ResolveAll for serving loops: resolves all K replicas of
  // each of `guids` into `out` (row-major: out[g * k() + i] is replica i of
  // guids[g]; `out` must hold guids.size() * k() elements). The whole
  // batch shares hash kernels and LPM probe passes — the highest-
  // throughput path — while every element stays bit-identical to
  // ResolveAll(guids[g])[i].
  void ResolveBatch(std::span<const Guid> guids, HostResolution* out,
                    unsigned worker = 0) const DMAP_HOT_PATH;

  // Accounts every resolution in `registry` ("algo1.*": hash evaluations,
  // rehash depth histogram, deputy fall-throughs). nullptr disables; the
  // uninstrumented path pays one predictable branch per resolution.
  void SetMetrics(MetricsRegistry* registry);

  // Records `resolutions` in the "algo1.*" metrics on slab `worker`, exactly
  // as resolving them records them: every resolve path ends here, and a
  // caller that reuses stored resolutions (DMapService) replays them
  // through it, so the exports do not depend on what was reused.
  void Account(std::span<const HostResolution> resolutions,
               unsigned worker = 0) const;

  // Resolve once per epoch (DESIGN.md section 10). When `memo` (nullable)
  // holds resolutions kept at the table's current epoch they are returned
  // and replayed through Account; otherwise `guid` is resolved afresh into
  // `fresh`, which is left empty exactly when the memo answered. Reads
  // `memo` only, so parallel readers may share it.
  std::span<const HostResolution> ResolveOrReuse(
      const Guid& guid, const ResolutionMemo* memo,
      std::vector<HostResolution>& fresh, unsigned worker = 0) const;
  // Keeps `fresh`, resolved against the table as it is now, in `memo`.
  void Keep(ResolutionMemo& memo, std::vector<HostResolution> fresh) const {
    memo.resolutions = std::move(fresh);
    memo.epoch = table_->epoch();
  }

  // Owned, epoch-versioned DIR-24-8 snapshot of the prefix table: LPM
  // probes read one or two array entries instead of walking the trie (~7x
  // faster at full table size), the configuration a real router would
  // run; the rare deputy fall-through still uses the trie's nearest-
  // announced query. RefreshSnapshot() builds the snapshot (64 MB +
  // O(table)) or rebuilds a stale one, and must only be called from serial
  // sections: the snapshot is shared read-only across workers while
  // resolutions run. It is a no-op when the snapshot is fresh (the prefix-
  // table epoch is unchanged since the last build; equal epochs imply an
  // identical announced set), and snapshot_rebuilds() counts actual
  // rebuilds so tests can pin that early-out. Probes use the snapshot only
  // while its epoch matches the table's current epoch() and silently fall
  // back to the trie when BGP churn has made it stale, so resolutions are
  // never made against stale routing state. A resolver never refreshed
  // always walks the trie: the reference the snapshot is tested against.
  void RefreshSnapshot() REQUIRES_SERIAL();
  bool snapshot_fresh() const {
    return snapshot_ != nullptr && snapshot_epoch_ == table_->epoch();
  }
  std::uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_; }

 private:
  // The snapshot if fresh, else nullptr (trie walk).
  const Dir24_8* ActiveFast() const {
    return snapshot_fresh() ? snapshot_.get() : nullptr;
  }
  // LPM owner of `addr` (kInvalidAs in a hole): one or two array reads via
  // `fast` when non-null, else a trie walk.
  AsId LpmOwner(const Dir24_8* fast, Ipv4Address addr) const {
    if (fast != nullptr) return fast->Lookup(addr);
    const auto rec = table_->Lookup(addr);
    return rec.has_value() ? rec->owner : kInvalidAs;
  }

  const GuidHashFamily* hashes_;
  const PrefixTable* table_;
  std::unique_ptr<Dir24_8> snapshot_;
  std::uint64_t snapshot_epoch_ = 0;
  std::uint64_t snapshot_rebuilds_ = 0;
  int max_hashes_;

  MetricsRegistry* metrics_ = nullptr;
  CounterId hash_evaluations_id_ = 0;
  CounterId deputy_fallbacks_id_ = 0;
  HistogramId rehash_depth_id_ = 0;
};

}  // namespace dmap
