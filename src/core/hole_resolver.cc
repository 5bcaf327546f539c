#include "core/hole_resolver.h"

#include <stdexcept>
#include <vector>

#include "common/thread_annotations.h"

namespace dmap {

HoleResolver::HoleResolver(const GuidHashFamily& hashes,
                           const PrefixTable& table, int max_hashes)
    : hashes_(&hashes), table_(&table), max_hashes_(max_hashes) {
  if (max_hashes < 1) {
    throw std::invalid_argument("HoleResolver: max_hashes must be >= 1");
  }
}

void HoleResolver::SetMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) return;
  hash_evaluations_id_ = registry->Counter("algo1.hash_evaluations");
  deputy_fallbacks_id_ = registry->Counter("algo1.deputy_fallbacks");
  rehash_depth_id_ = registry->Histogram(
      "algo1.rehash_depth", MetricsRegistry::CountBoundaries());
}

void HoleResolver::RefreshSnapshot() {
  // Equal epochs imply an identical announced set, so a rebuild would
  // reproduce the snapshot bit for bit.
  if (snapshot_fresh()) return;
  if (snapshot_ == nullptr) {
    snapshot_ = std::make_unique<Dir24_8>(*table_);
  } else {
    snapshot_->Rebuild(*table_);  // reuses the 64 MB base allocation
  }
  snapshot_epoch_ = table_->epoch();
  ++snapshot_rebuilds_;
}

void HoleResolver::Account(std::span<const HostResolution> resolutions,
                           unsigned worker) const {
  if (metrics_ == nullptr) return;
  for (const HostResolution& r : resolutions) {
    metrics_->Add(hash_evaluations_id_, std::uint64_t(r.hash_count), worker);
    metrics_->Observe(rehash_depth_id_, double(r.hash_count), worker);
    if (r.used_nearest) metrics_->Add(deputy_fallbacks_id_, 1, worker);
  }
}

std::span<const HostResolution> HoleResolver::ResolveOrReuse(
    const Guid& guid, const ResolutionMemo* memo,
    std::vector<HostResolution>& fresh, unsigned worker) const {
  if (memo != nullptr && !memo->resolutions.empty() &&
      memo->epoch == table_->epoch()) {
    Account(memo->resolutions, worker);
    return memo->resolutions;
  }
  fresh = ResolveAll(guid, worker);
  return fresh;
}

std::vector<HostResolution> HoleResolver::ResolveAll(const Guid& guid,
                                                     unsigned worker) const {
  std::vector<HostResolution> out;
  out.resize(std::size_t(hashes_->k()));
  ResolveBatch(std::span<const Guid>(&guid, 1), out.data(), worker);
  return out;
}

namespace {

// Per-thread scratch for ResolveBatch's wavefront: flat hash-chain
// addresses, the surviving flat indices, and the gathered rehash lanes.
// Thread-local so concurrent workers never share it, reused across calls so
// steady-state serving performs no allocation.
struct BatchScratch {
  std::vector<Ipv4Address> addrs;
  std::vector<std::uint32_t> pending;
  std::vector<Ipv4Address> rehash_in;
  std::vector<Ipv4Address> rehash_out;
  std::vector<int> rehash_lanes;
};

// Every vector is sized here, and only here, so the caller's loop body
// stays allocation-free: slots are plain stores into presized storage.
BatchScratch& AcquireBatchScratch(std::size_t total) DMAP_HOT_PATH_ALLOW(
    "scratch grows to the batch high-water mark and is reused by later "
    "calls on this thread; steady-state serving allocates nothing") {
  static thread_local BatchScratch scratch;
  if (scratch.addrs.size() < total) {
    scratch.addrs.resize(total);
    scratch.pending.resize(total);
    scratch.rehash_in.resize(total);
    scratch.rehash_out.resize(total);
    scratch.rehash_lanes.resize(total);
  }
  return scratch;
}

}  // namespace

void HoleResolver::ResolveBatch(std::span<const Guid> guids,
                                HostResolution* out, unsigned worker) const {
  const int k = hashes_->k();
  const std::size_t total = guids.size() * std::size_t(k);
  const Dir24_8* fast = ActiveFast();
  BatchScratch& scratch = AcquireBatchScratch(total);

  // Round 0: every replica address of every GUID through the batched
  // K-hash kernel — one GUID serialization and interleaved SipHash lanes
  // per GUID instead of K independent evaluations.
  std::vector<Ipv4Address>& addrs = scratch.addrs;
  for (std::size_t g = 0; g < guids.size(); ++g) {
    hashes_->HashAllInto(guids[g], addrs.data() + g * std::size_t(k));
  }

  // Wavefront over rehash rounds: round r probes the r-th hash of every
  // (guid, replica) pair still unresolved, then advances the surviving
  // chains in one batched rehash. With the snapshot installed each round
  // is a tight pass of independent array probes. Resolutions are identical
  // to resolving each replica independently; only the evaluation order
  // differs, and the metrics are recorded once the batch is resolved. Flat
  // index f is replica f % k of guid f / k.
  std::vector<std::uint32_t>& pending = scratch.pending;
  for (std::size_t f = 0; f < total; ++f) pending[f] = std::uint32_t(f);
  std::size_t pending_count = total;
  std::vector<Ipv4Address>& rehash_in = scratch.rehash_in;
  std::vector<Ipv4Address>& rehash_out = scratch.rehash_out;
  std::vector<int>& rehash_lanes = scratch.rehash_lanes;

  for (int tries = 1; tries <= max_hashes_ && pending_count > 0; ++tries) {
    std::size_t keep = 0;
    for (std::size_t p = 0; p < pending_count; ++p) {
      const std::uint32_t f = pending[p];
      const Ipv4Address addr = addrs[f];
      const AsId owner = LpmOwner(fast, addr);
      HostResolution& result = out[f];
      if (owner != kInvalidAs) {
        result.host = owner;
        result.hashed_address = addr;
        result.stored_address = addr;
        result.hash_count = tries;
        result.used_nearest = false;  // `out` may hold an earlier batch
      } else if (tries == max_hashes_) {
        const auto nearest = table_->NearestAnnounced(addr);
        if (!nearest) {
          throw std::logic_error("HoleResolver: prefix table is empty");
        }
        result.host = nearest->record.owner;
        result.hashed_address = addr;
        result.stored_address = nearest->address;
        result.hash_count = max_hashes_;
        result.used_nearest = true;
      } else {
        pending[keep++] = f;
      }
    }
    pending_count = keep;
    if (keep > 0 && tries < max_hashes_) {
      for (std::size_t j = 0; j < keep; ++j) {
        rehash_in[j] = addrs[pending[j]];
        rehash_lanes[j] = int(pending[j] % std::uint32_t(k));
      }
      hashes_->RehashManyInto(rehash_in.data(), rehash_lanes.data(), keep,
                              rehash_out.data());
      for (std::size_t j = 0; j < keep; ++j) {
        addrs[pending[j]] = rehash_out[j];
      }
    }
  }
  Account({out, total}, worker);
}

}  // namespace dmap
