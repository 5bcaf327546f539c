// Mapping storage.
//
// MappingStore is the table a single hosting AS's gateway keeps for the
// GUIDs hashed to it (its own share plus whatever it hosts as a deputy);
// the wire-protocol nodes in src/proto/ each own one.
//
// ShardedMappingStore is the closed-form service's aggregate view of every
// AS's table, organised for lock-free parallel serving: entries are
// partitioned across N independent shards by a deterministic hash of the
// GUID alone (so all K+1 replicas of a GUID live in one shard), and each
// shard is one open-addressing table (core/probe_table.h) that is both the
// authoritative state and what readers probe. Writes mutate the table in
// place, only at serial write points; reads run only between them, with
// zero locking. RefreshSnapshots() publishes the shards written since the
// last publish by recording their epochs — it copies nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/guid.h"
#include "common/ipv4.h"
#include "common/thread_annotations.h"
#include "core/mapping.h"
#include "core/probe_table.h"

namespace dmap {

class MappingStore {
 public:
  // Inserts or refreshes a mapping. Stale writes (logical stamp strictly
  // below the stored one — version first, writer AS as tie-break) are
  // rejected, which makes replica updates idempotent and order-insensitive
  // (Section III-D-2): any permutation of the same write set, with
  // arbitrary duplication, converges to the same stored state. Returns
  // true if applied.
  //
  // `stored_address` records which announced address Algorithm 1 hashed the
  // replica to; the withdrawal repair of Section III-D-1 enumerates by it.
  // Local replicas (not placed by hashing) use the default 0.0.0.0, which
  // is inside a permanently reserved block and thus never enumerated.
  bool Upsert(const Guid& guid, const MappingEntry& entry,
              Ipv4Address stored_address = Ipv4Address(0));

  // Exact lookup. nullptr on miss. The pointer is invalidated by mutations.
  const MappingEntry* Lookup(const Guid& guid) const;

  // Removes a mapping, e.g. after migrating it to a deputy AS. Returns true
  // if present.
  bool Erase(const Guid& guid);

  // Drops every mapping — a process crash losing the in-memory store (the
  // fault model's `crash =` windows). Recovery brings the AS back empty;
  // lookup-triggered re-replication refills it.
  void Clear() { entries_.clear(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Wire-format storage footprint per the paper's Section IV-A accounting.
  std::uint64_t StorageBits() const {
    return std::uint64_t(entries_.size()) * kMappingEntryBits;
  }

  void ForEach(
      const std::function<void(const Guid&, const MappingEntry&)>& fn) const;

  // Visits every mapping whose stored address lies inside `prefix` — the
  // mappings orphaned if this AS withdraws that prefix.
  void ForEachStoredIn(
      const Cidr& prefix,
      const std::function<void(const Guid&, const MappingEntry&)>& fn) const;

 private:
  struct Stored {
    MappingEntry entry;
    Ipv4Address stored_address;
  };
  std::unordered_map<Guid, Stored, GuidHash> entries_;
};

// Shared-nothing sharded mapping state with lock-free reads (see the file
// comment). Entries are keyed (AsId, Guid) — the replica of one GUID at
// one host — and the shard is chosen by the GUID alone, so a write of all
// replicas of a GUID touches exactly one shard and the shard populations
// are identical for every thread count. Every query result is independent
// of the shard count (asserted by the cross-shard equivalence suite);
// enumeration results are sorted before being returned.
class ShardedMappingStore {
 public:
  // Shard counts outside [1, kMaxShards] are clamped; 0 selects the
  // automatic count (ResolveShardCount(0)).
  static constexpr unsigned kMaxShards = 256;

  // `requested` = 0 picks a power of two sized to the hardware concurrency
  // (clamped to [1, kMaxShards]); any other value is clamped to the same
  // range and used as-is. Results never depend on the outcome — only
  // contention does.
  static unsigned ResolveShardCount(unsigned requested);

  // `num_ases` bounds the AsId key space (used by the per-AS accounting).
  ShardedMappingStore(std::uint32_t num_ases, unsigned num_shards);

  unsigned num_shards() const { return unsigned(shards_.size()); }
  std::uint32_t num_ases() const { return num_ases_; }

  // Deterministic shard of a GUID: a pure function of the GUID fingerprint
  // and the shard count, identical on every host and run.
  unsigned ShardOf(const Guid& guid) const {
    return ShardOfFingerprint(guid.Fingerprint64());
  }

  // ---- Serial write API (WRITE_SERIAL_READ_SHARED: callers mutate only
  // from serial sections; no reader runs concurrently with these). --------

  // Same version-gated semantics as MappingStore::Upsert, per (as, guid).
  // `as` must name an AS: kInvalidAs marks empty table slots.
  bool Upsert(AsId as, const Guid& guid, const MappingEntry& entry,
              Ipv4Address stored_address = Ipv4Address(0)) REQUIRES_SERIAL();

  // Removes the replica of `guid` at `as`; true if present.
  bool Erase(AsId as, const Guid& guid) REQUIRES_SERIAL();

  // Publishes every shard written since the last publish: O(shards), no
  // copying — the tables are already current. Must only be called from
  // serial sections, the write point of the snapshot discipline.
  void RefreshSnapshots() REQUIRES_ALL_SHARDS() REQUIRES_SERIAL();

  // ---- Read API (safe to call concurrently from many workers while no
  // writer runs; never blocks, never locks). -----------------------------

  // Probes the shard's table (one or two cache lines for the common hit);
  // nullptr on miss. The `fingerprint` overload lets a caller probing
  // several ASs for the same GUID hash it once. Any Upsert or Erase on the
  // same shard invalidates the pointer: slots move.
  const MappingEntry* Read(AsId as, const Guid& guid) const DMAP_HOT_PATH {
    return Read(as, guid, guid.Fingerprint64());
  }
  const MappingEntry* Read(AsId as, const Guid& guid,
                           std::uint64_t fingerprint) const DMAP_HOT_PATH;

  // The same answer as Read, for callers outside the serving hot path.
  const MappingEntry* Lookup(AsId as, const Guid& guid) const {
    return Read(as, guid);
  }

  // True when every shard's writes have been published.
  bool snapshots_fresh() const;

  // Lifetime count of publishes of a changed shard — the regression
  // handle for "refresh must not touch untouched shards".
  std::uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_; }

  // ---- Introspection (serial sections only; results are independent of
  // the shard count). ----------------------------------------------------

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::size_t SizeAt(AsId as) const;
  std::vector<std::size_t> SizesByAs() const;

  // Wire-format storage footprint of one AS's table (Section IV-A).
  std::uint64_t StorageBitsAt(AsId as) const {
    return std::uint64_t(SizeAt(as)) * kMappingEntryBits;
  }

  // GUIDs whose replica at `as` was placed (hashed) inside `prefix`,
  // sorted by GUID so the result is identical for every shard count.
  std::vector<Guid> GuidsStoredIn(AsId as, const Cidr& prefix) const;

 private:
  // One table slot, 96 bytes: the probe compares the tag, then the exact
  // key, all in the first 32 bytes. `as == kInvalidAs` marks an empty slot.
  struct Slot {
    std::uint32_t tag = 0;
    Ipv4Address stored_address;
    AsId as = kInvalidAs;
    Guid guid;
    MappingEntry entry;
    bool empty() const { return as == kInvalidAs; }
  };
  static_assert(sizeof(Slot) == 96);
  struct Shard {
    ProbeTable<Slot> table WRITE_SERIAL_READ_SHARED();
    std::uint64_t epoch = 0;  // == snapshot_epoch once published
    std::uint64_t snapshot_epoch = 0;
  };

  unsigned ShardOfFingerprint(std::uint64_t fingerprint) const {
    return unsigned(fingerprint % shards_.size());
  }
  // Index of the (as, guid) slot, or of the empty slot ending its chain.
  static std::size_t SlotOf(const Shard& shard, AsId as, const Guid& guid,
                            std::uint64_t fingerprint) {
    return shard.table.Find(ProbeTag(fingerprint, as), [&](const Slot& slot) {
      return slot.as == as && slot.guid == guid;
    });
  }

  std::uint32_t num_ases_;
  std::vector<Shard> shards_;
  std::uint64_t snapshot_rebuilds_ = 0;
};

}  // namespace dmap
