#include "core/mapping_store.h"

#include <algorithm>
#include <thread>

namespace dmap {

bool MappingStore::Upsert(const Guid& guid, const MappingEntry& entry,
                          Ipv4Address stored_address) {
  const auto [it, inserted] =
      entries_.try_emplace(guid, Stored{entry, stored_address});
  if (inserted) return true;
  if (entry.stamp() < it->second.entry.stamp()) return false;
  it->second = Stored{entry, stored_address};
  return true;
}

const MappingEntry* MappingStore::Lookup(const Guid& guid) const {
  const auto it = entries_.find(guid);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

bool MappingStore::Erase(const Guid& guid) { return entries_.erase(guid) > 0; }

void MappingStore::ForEach(
    const std::function<void(const Guid&, const MappingEntry&)>& fn) const {
  for (const auto& [guid, stored] : entries_) fn(guid, stored.entry);
}

void MappingStore::ForEachStoredIn(
    const Cidr& prefix,
    const std::function<void(const Guid&, const MappingEntry&)>& fn) const {
  for (const auto& [guid, stored] : entries_) {
    if (prefix.Contains(stored.stored_address)) fn(guid, stored.entry);
  }
}

// ---------------------------------------------------------------------------
// ShardedMappingStore
// ---------------------------------------------------------------------------

unsigned ShardedMappingStore::ResolveShardCount(unsigned requested) {
  if (requested == 0) {
    // Auto: a power of two covering the hardware threads, so a saturating
    // ThreadPool spreads snapshot probes across independent shards. Any
    // value is equally correct — the equivalence suite proves results
    // never depend on it.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned shards = 1;
    while (shards < hw && shards < kMaxShards) shards <<= 1;
    return shards;
  }
  return std::clamp(requested, 1u, kMaxShards);
}

ShardedMappingStore::ShardedMappingStore(std::uint32_t num_ases,
                                         unsigned num_shards)
    : num_ases_(num_ases), shards_(ResolveShardCount(num_shards)) {}

bool ShardedMappingStore::Upsert(AsId as, const Guid& guid,
                                 const MappingEntry& entry,
                                 Ipv4Address stored_address) {
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  const std::size_t i = SlotOf(shard, as, guid, fingerprint);
  const Slot stored{ProbeTag(fingerprint, as), stored_address, as, guid, entry};
  Slot& slot = shard.table[i];
  if (slot.empty()) {
    shard.table.Insert(i, stored);
  } else if (entry.stamp() < slot.entry.stamp()) {
    return false;
  } else {
    slot = stored;
  }
  ++shard.epoch;
  return true;
}

bool ShardedMappingStore::Erase(AsId as, const Guid& guid) {
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  const std::size_t i = SlotOf(shard, as, guid, fingerprint);
  if (shard.table[i].empty()) return false;
  shard.table.Erase(i);
  ++shard.epoch;
  return true;
}

void ShardedMappingStore::RefreshSnapshots() {
  for (Shard& shard : shards_) {
    if (shard.snapshot_epoch == shard.epoch) continue;
    shard.snapshot_epoch = shard.epoch;
    ++snapshot_rebuilds_;
  }
}

const MappingEntry* ShardedMappingStore::Read(
    AsId as, const Guid& guid, std::uint64_t fingerprint) const {
  const Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  const Slot& slot = shard.table[SlotOf(shard, as, guid, fingerprint)];
  return slot.empty() ? nullptr : &slot.entry;
}

bool ShardedMappingStore::snapshots_fresh() const {
  return std::all_of(shards_.begin(), shards_.end(), [](const Shard& shard) {
    return shard.snapshot_epoch == shard.epoch;
  });
}

std::size_t ShardedMappingStore::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.table.size();
  return total;
}

std::size_t ShardedMappingStore::SizeAt(AsId as) const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    shard.table.ForEach([&](const Slot& slot) { count += slot.as == as; });
  }
  return count;
}

std::vector<std::size_t> ShardedMappingStore::SizesByAs() const {
  std::vector<std::size_t> sizes(num_ases_, 0);
  // Shards are visited in shard order and the per-AS tallies are integer
  // sums, so the merged vector is identical for every shard count.
  for (const Shard& shard : shards_) {
    shard.table.ForEach([&](const Slot& slot) {
      if (slot.as < sizes.size()) ++sizes[slot.as];
    });
  }
  return sizes;
}

std::vector<Guid> ShardedMappingStore::GuidsStoredIn(
    AsId as, const Cidr& prefix) const {
  std::vector<Guid> guids;
  for (const Shard& shard : shards_) {
    shard.table.ForEach([&](const Slot& slot) {
      if (slot.as == as && prefix.Contains(slot.stored_address)) {
        guids.push_back(slot.guid);
      }
    });
  }
  std::sort(guids.begin(), guids.end());
  return guids;
}

}  // namespace dmap
