// Resolver-side mapping cache — the in-network caching the paper's
// concluding remarks sketch, on the lookup hot path. Every border
// gateway keeps recently resolved GUID->NA mappings with a TTL; a fresh
// hit answers in one intra-AS round trip instead of an inter-AS probe
// (the locality argument of the Kademlia-caching literature in PAPERS.md).
// The cost is bounded staleness: a cached entry can outlive a mobility
// update for up to the TTL, and that staleness is *measured* (stale_served
// counters, scored against DMapService's authoritative owner stamps),
// never assumed away.
//
// Concurrency follows the ShardedMappingStore discipline exactly:
//
//  * Entries are partitioned across shards by the GUID fingerprint alone,
//    so every AS's cached copy of one GUID lives in one shard and
//    Invalidate touches exactly one shard.
//  * Each shard is one open-addressing table (core/probe_table.h) over a
//    slab of entries that also carries the LRU order and the per-GUID copy
//    chains. It is written in place, only from serial sections (Get/Put
//    for single-owner executors, ApplyFills for the parallel closed-form
//    sweeps); RefreshSnapshots() publishes the written shards by recording
//    their epochs.
//  * The parallel read path (Probe) is lock-free and allocation-free
//    (DMAP_HOT_PATH). A shard with unpublished writes reports a miss: for
//    a cache a miss is always correct (the caller falls through to the
//    full probe), so publishing only buys hit rate, never correctness.
//  * Fills discovered inside a parallel phase are buffered per worker
//    lane, one bucket per cache shard (RecordFill), and applied at the
//    next serial point (ApplyFills) in a canonical key order, so cache
//    contents — and therefore hit/miss streams and exports — are
//    bit-identical for every thread count.
//  * ApplyFills merges the shards in parallel, one task per shard on a
//    pool the cache owns (min(EnsureWorkers count, shards) lanes; a
//    one-lane pool runs the tasks in a plain loop). A shard's task reads only that shard's bucket of every
//    lane and writes only that shard: a fill, its eviction victim and its
//    copy chain all live in the fill's GUID shard, the canonical order
//    restricted to one shard is that shard's share of the global order,
//    and evictions are counted per shard. The result is the serial merge's,
//    bit for bit, for any lane count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/guid.h"
#include "common/thread_annotations.h"
#include "core/mapping.h"
#include "core/probe_table.h"
#include "event/sim_time.h"
#include "runtime/thread_pool.h"

namespace dmap {

// The `--cache=` knob surface. Parsed once from an inline `k=v,...` string,
// never as N separate flags — the same convention as ServingConfig:
//
//   capacity   = 4096    # cached entries per shard-set; 0 disables
//   ttl_ms     = 200     # freshness bound; 0 = entries never expire
//   shards     = 8       # fingerprint partitions (clamped to [1, 256])
//   invalidate = false   # drop all cached copies of a GUID on update
struct CacheConfig {
  // Total cached-entry budget across all shards; 0 = caching disabled.
  std::size_t capacity = 0;
  // Freshness bound in simulated milliseconds; <= 0 = never expires (the
  // invalidate rule is then the only coherence mechanism).
  double ttl_ms = 0.0;
  // Fingerprint partitions; clamped to [1, kMaxShards].
  unsigned shards = 8;
  // Coherence mode: true models update-driven invalidation (every cached
  // copy of a GUID dropped at the update's serial point — zero staleness),
  // false models pure TTL expiry (the staleness-vs-TTL frontier).
  bool invalidate_on_update = false;

  bool enabled() const { return capacity > 0; }

  // Throws std::invalid_argument naming the offending field.
  void Validate() const;

  // `--cache=<inline k=v,...>`: commas separate pairs; a bare number is
  // shorthand for `capacity=<n>`. Each key is read at its field's type;
  // unknown keys throw std::invalid_argument, then Validate() runs.
  static CacheConfig ParseArg(const std::string& arg);
};

class ResolverCache {
 public:
  static constexpr unsigned kMaxShards = 256;

  explicit ResolverCache(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }

  // ---- Single-owner serial path (a caller that owns a private instance
  // and drives it from one thread, like ablation_dmap's table (f); NOT
  // safe for concurrent callers — parallel phases use Probe/RecordFill on
  // a shared instance instead). -----------------------------------------

  // Returns the cached entry for (as, guid) if present and fresh at `now`,
  // else nullptr; a hit moves the entry to the LRU front. Expired entries
  // are evicted on access. The pointer is valid until the next write to
  // the cache.
  const MappingEntry* Get(AsId as, const Guid& guid, SimTime now);

  // Inserts or refreshes (as, guid). Evicts the LRU tail on overflow.
  void Put(AsId as, const Guid& guid, const MappingEntry& entry, SimTime now);

  // ---- Serial write points (global: unreachable from parallel code). ---

  // Drops every AS's cached copy of `guid` — the invalidate-on-update
  // coherence rule. O(copies): the shard keyed by the GUID fingerprint
  // holds all copies, chained from one per-GUID head slot. Returns the
  // number of copies dropped.
  std::size_t Invalidate(const Guid& guid) REQUIRES_SERIAL();

  // Drains every worker's fill buffers and applies one fill per key in
  // canonical (GUID words, as) order; of several fills for one key the
  // newest logical stamp wins, then the latest expiry. The order is a pure
  // function of the fills, so cache contents are identical no matter which
  // worker recorded which fill. Shards merge in parallel on the cache's
  // pool (see the file comment). Does NOT publish.
  void ApplyFills() REQUIRES_SERIAL();

  // Publishes every shard written since the last publish: O(shards), the
  // tables are already current.
  void RefreshSnapshots() REQUIRES_SERIAL();

  // ---- Parallel phase (shared instance, closed-form sweeps). -----------

  // Sizes the per-worker fill buffers and tally slabs, and grows the
  // ApplyFills pool to min(workers, shards) lanes; serial sections only.
  void EnsureWorkers(unsigned workers) REQUIRES_ALL_SHARDS();

  // Published-state read: returns the entry when present and fresh at
  // `now`, nullptr otherwise. A shard with writes since the last
  // RefreshSnapshots reports a miss — correct for a cache, the caller
  // simply takes the full-probe path.
  const MappingEntry* Probe(AsId as, const Guid& guid,
                            std::uint64_t fingerprint,
                            SimTime now) const DMAP_HOT_PATH;
  const MappingEntry* Probe(AsId as, const Guid& guid, SimTime now) const {
    return Probe(as, guid, guid.Fingerprint64(), now);
  }

  // Per-worker hit/miss/staleness tallies for Probe outcomes (the serial
  // Get path tallies internally). Increments a padded per-worker slab —
  // no locks, no allocation.
  void TallyProbe(unsigned worker, bool hit) REQUIRES_SHARD(worker);
  void TallyStaleServed(unsigned worker) REQUIRES_SHARD(worker);

  // Buffers a fill discovered during a parallel sweep; applied at the next
  // ApplyFills(). `worker` must be the caller's exclusive lane.
  void RecordFill(unsigned worker, AsId as, const Guid& guid,
                  const MappingEntry& entry, SimTime now)
      REQUIRES_SHARD(worker);

  // ---- Introspection (serial sections only). ---------------------------

  std::size_t size() const;
  bool snapshots_fresh() const;
  // Lifetime count of publishes of a changed shard.
  std::uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_; }

  // Lifetime totals: serial-path counters plus every worker slab.
  std::uint64_t hits() const {
    return serial_.hits + SumLanes(&WorkerLane::hits);
  }
  std::uint64_t misses() const {
    return serial_.misses + SumLanes(&WorkerLane::misses);
  }
  std::uint64_t evictions() const;
  std::uint64_t invalidations() const { return serial_.invalidations; }
  std::uint64_t stale_served() const {
    return SumLanes(&WorkerLane::stale_served);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // Slab index of each shard's LRU sentinel: the LRU list is a ring
  // through it, its `older` being the newest entry, its `newer` the oldest.
  static constexpr std::uint32_t kRing = 0;

  // One cached copy in its shard's slab, linked into the LRU list and into
  // its GUID's copy chain; freed nodes chain through `older` into the free
  // list. Fills are buffered as unlinked nodes.
  struct Node {
    Guid guid;
    AsId as = kInvalidAs;
    MappingEntry entry;
    SimTime expires;
    std::uint32_t newer = kRing;  // LRU neighbours
    std::uint32_t older = kRing;
    std::uint32_t next_copy = kNil;  // other ASes' copies of `guid`
    std::uint32_t prev_copy = kNil;
  };
  // Table slot naming a node: keyed by the node's (as, guid) in the index,
  // by its GUID alone in the copy-chain heads.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t node = kNil;
    bool empty() const { return node == kNil; }
  };
  // Padded so the ApplyFills tasks of adjacent shards never share a cache
  // line.
  struct alignas(64) Shard {
    // Written only from serial sections, the single-owner executor loop
    // and this shard's ApplyFills task.
    ProbeTable<Slot> index WRITE_SERIAL_READ_SHARED();
    ProbeTable<Slot> heads WRITE_SERIAL_READ_SHARED();
    std::vector<Node> nodes WRITE_SERIAL_READ_SHARED() =
        std::vector<Node>(1);  // the sentinel: an empty ring
    std::uint32_t free = kNil;
    std::uint64_t epoch = 0;  // == snapshot_epoch once published
    std::uint64_t snapshot_epoch = 0;
    std::uint64_t evictions = 0;
    // ApplyFills' merge buffer: this shard's fills across every lane, kept
    // between calls so the merge allocates only while it grows.
    std::vector<const Node*> merge;
  };
  // Padded so adjacent workers never share a cache line.
  struct alignas(64) WorkerLane {
    // One bucket per cache shard; ApplyFills' task for shard s drains
    // bucket s of every lane.
    std::vector<std::vector<Node>> fills SHARD_CONFINED(worker);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_served = 0;
  };
  struct SerialCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
  };

  std::uint64_t SumLanes(std::uint64_t WorkerLane::*tally) const {
    std::uint64_t total = 0;
    for (const WorkerLane& lane : lanes_) total += lane.*tally;
    return total;
  }
  unsigned ShardOfFingerprint(std::uint64_t fingerprint) const {
    return unsigned(fingerprint % shards_.size());
  }
  // Index slot of (as, guid), or the empty slot ending its probe chain.
  static std::size_t IndexSlot(const Shard& shard, AsId as, const Guid& guid,
                               std::uint64_t fingerprint) {
    return shard.index.Find(ProbeTag(fingerprint, as), [&](const Slot& slot) {
      const Node& node = shard.nodes[slot.node];
      return node.as == as && node.guid == guid;
    });
  }
  // Copy-chain head slot of `guid`, or the empty slot ending its chain.
  static std::size_t HeadSlot(const Shard& shard, const Guid& guid,
                              std::uint64_t fingerprint) {
    return shard.heads.Find(ProbeTag(fingerprint, kInvalidAs),
                            [&](const Slot& slot) {
                              return shard.nodes[slot.node].guid == guid;
                            });
  }

  SimTime ExpiryFor(SimTime now) const;
  // Inserts or refreshes the key of the unlinked node `fill`; touches only
  // the fill's own shard.
  void PutFill(const Node& fill);
  // ApplyFills' per-shard task: merges bucket `shard` of every lane in
  // canonical order, applies it and empties the buckets.
  void ApplyShard(unsigned shard) REQUIRES_SHARD(shard);
  static void PushFront(Shard& shard, std::uint32_t n);
  static void Unlink(Shard& shard, std::uint32_t n);
  // Drops node `n`: its index slot, LRU and copy-chain links; bumps epoch.
  static void Remove(Shard& shard, std::uint32_t n);

  CacheConfig config_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::vector<WorkerLane> lanes_;
  SerialCounters serial_;
  std::uint64_t snapshot_rebuilds_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // ApplyFills' lanes
};

}  // namespace dmap
