#include "core/resolver_cache.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/config.h"

namespace dmap {

void CacheConfig::Validate() const {
  if (capacity == 0) return;  // disabled: nothing else matters
  if (shards < 1 || shards > ResolverCache::kMaxShards) {
    throw std::invalid_argument("CacheConfig: shards out of [1, 256]");
  }
  if (!(ttl_ms >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("CacheConfig: negative ttl_ms");
  }
}

CacheConfig CacheConfig::ParseArg(const std::string& arg) {
  // A bare number is shorthand for `capacity=<n>`.
  std::string text = arg.find('=') == std::string::npos ? "capacity = " + arg
                                                         : arg;
  std::replace(text.begin(), text.end(), ',', '\n');
  const Config config = Config::ParseString(text);
  CacheConfig out;
  out.capacity = config.GetInt("capacity", out.capacity);
  out.ttl_ms = config.GetDouble("ttl_ms", out.ttl_ms);
  out.shards = config.GetInt("shards", out.shards);
  // `invalidate` is the short spelling; `invalidate_on_update` wins.
  out.invalidate_on_update = config.GetBool(
      "invalidate_on_update", config.GetBool("invalidate", false));
  const auto unused = config.UnusedKeys();
  if (!unused.empty()) {
    throw std::invalid_argument("CacheConfig: unknown key '" + unused[0] + "'");
  }
  out.Validate();
  return out;
}

ResolverCache::ResolverCache(const CacheConfig& config) : config_(config) {
  config_.Validate();
  if (!config_.enabled()) {
    throw std::invalid_argument("ResolverCache: zero capacity");
  }
  const unsigned shards =
      std::clamp(config_.shards, 1u, kMaxShards);
  per_shard_capacity_ =
      (config_.capacity + shards - 1) / shards;  // ceil; never zero
  shards_.resize(shards);
  EnsureWorkers(1);
}

SimTime ResolverCache::ExpiryFor(SimTime now) const {
  if (config_.ttl_ms <= 0.0) {
    return SimTime::Millis(std::numeric_limits<double>::infinity());
  }
  return now + SimTime::Millis(config_.ttl_ms);
}

const MappingEntry* ResolverCache::Get(AsId as, const Guid& guid,
                                       SimTime now) {
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  const std::uint32_t n =
      shard.index[IndexSlot(shard, as, guid, fingerprint)].node;
  const bool expired = n != kNil && shard.nodes[n].expires < now;
  if (expired) {
    Remove(shard, n);
    ++shard.evictions;
  }
  if (n == kNil || expired) {
    ++serial_.misses;
    return nullptr;
  }
  Unlink(shard, n);  // refresh
  PushFront(shard, n);
  ++serial_.hits;
  return &shard.nodes[n].entry;
}

void ResolverCache::PushFront(Shard& shard, std::uint32_t n) {
  Node& ring = shard.nodes[kRing];
  Node& node = shard.nodes[n];
  node.newer = kRing;
  node.older = ring.older;
  shard.nodes[ring.older].newer = n;
  ring.older = n;
}

void ResolverCache::Unlink(Shard& shard, std::uint32_t n) {
  const Node& node = shard.nodes[n];
  shard.nodes[node.newer].older = node.older;
  shard.nodes[node.older].newer = node.newer;
}

void ResolverCache::Remove(Shard& shard, std::uint32_t n) {
  const auto is_n = [n](const Slot& slot) { return slot.node == n; };
  Node& node = shard.nodes[n];
  const std::uint64_t fingerprint = node.guid.Fingerprint64();
  shard.index.Erase(shard.index.Find(ProbeTag(fingerprint, node.as), is_n));
  Unlink(shard, n);
  if (node.next_copy != kNil) {
    shard.nodes[node.next_copy].prev_copy = node.prev_copy;
  }
  if (node.prev_copy != kNil) {
    shard.nodes[node.prev_copy].next_copy = node.next_copy;
  } else {  // `n` heads its GUID's copy chain
    const std::size_t head =
        shard.heads.Find(ProbeTag(fingerprint, kInvalidAs), is_n);
    if (node.next_copy == kNil) {
      shard.heads.Erase(head);
    } else {
      shard.heads[head].node = node.next_copy;
    }
  }
  node.older = shard.free;
  shard.free = n;
  ++shard.epoch;
}

void ResolverCache::PutFill(const Node& fill) {
  const std::uint64_t fingerprint = fill.guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  std::size_t i = IndexSlot(shard, fill.as, fill.guid, fingerprint);
  std::uint32_t n = shard.index[i].node;
  if (n != kNil) {  // refresh
    shard.nodes[n].entry = fill.entry;
    shard.nodes[n].expires = fill.expires;
    Unlink(shard, n);
  } else {
    if (shard.index.size() == per_shard_capacity_) {
      // The new key is absent, so evicting before the insert picks the
      // same LRU tail as evicting after it.
      Remove(shard, shard.nodes[kRing].newer);
      ++shard.evictions;
      i = IndexSlot(shard, fill.as, fill.guid, fingerprint);  // shifted
    }
    n = shard.free;
    if (n == kNil) {
      n = std::uint32_t(shard.nodes.size());
      shard.nodes.push_back(fill);
    } else {
      shard.free = shard.nodes[n].older;
      shard.nodes[n] = fill;
    }
    shard.index.Insert(i, Slot{ProbeTag(fingerprint, fill.as), n});
    // The new copy becomes the head of its GUID's copy chain.
    const std::size_t head = HeadSlot(shard, fill.guid, fingerprint);
    if (shard.heads[head].empty()) {
      shard.heads.Insert(head, Slot{ProbeTag(fingerprint, kInvalidAs), n});
    } else {
      shard.nodes[n].next_copy = shard.heads[head].node;
      shard.nodes[shard.nodes[n].next_copy].prev_copy = n;
      shard.heads[head].node = n;
    }
  }
  PushFront(shard, n);
  ++shard.epoch;
}

void ResolverCache::Put(AsId as, const Guid& guid, const MappingEntry& entry,
                        SimTime now) {
  PutFill(Node{guid, as, entry, ExpiryFor(now)});
}

std::size_t ResolverCache::Invalidate(const Guid& guid) {
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  std::size_t dropped = 0;
  for (std::uint32_t n = shard.heads[HeadSlot(shard, guid, fingerprint)].node;
       n != kNil; ++dropped) {
    const std::uint32_t next = shard.nodes[n].next_copy;
    Remove(shard, n);
    n = next;
  }
  serial_.invalidations += dropped;
  return dropped;
}

void ResolverCache::EnsureWorkers(unsigned workers) {
  if (workers < 1) workers = 1;
  if (lanes_.size() < workers) lanes_.resize(workers);
  for (WorkerLane& lane : lanes_) lane.fills.resize(shards_.size());
  const unsigned apply_lanes =
      unsigned(std::min(lanes_.size(), shards_.size()));
  if (pool_ == nullptr || pool_->size() < apply_lanes) {
    pool_ = std::make_unique<ThreadPool>(apply_lanes);
  }
}

const MappingEntry* ResolverCache::Probe(AsId as, const Guid& guid,
                                         std::uint64_t fingerprint,
                                         SimTime now) const {
  const Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  // Unpublished writes: a miss, which is always correct for a cache.
  if (shard.snapshot_epoch != shard.epoch) return nullptr;
  const Slot& slot = shard.index[IndexSlot(shard, as, guid, fingerprint)];
  if (slot.empty()) return nullptr;
  const Node& node = shard.nodes[slot.node];
  return node.expires < now ? nullptr : &node.entry;  // expired: no evict
}

void ResolverCache::TallyProbe(unsigned worker, bool hit) {
  WorkerLane& lane = lanes_[worker];
  hit ? ++lane.hits : ++lane.misses;
}

void ResolverCache::TallyStaleServed(unsigned worker) {
  ++lanes_[worker].stale_served;
}

void ResolverCache::RecordFill(unsigned worker, AsId as, const Guid& guid,
                               const MappingEntry& entry, SimTime now) {
  lanes_[worker]
      .fills[ShardOfFingerprint(guid.Fingerprint64())]
      .push_back(Node{guid, as, entry, ExpiryFor(now)});
}

void ResolverCache::ApplyShard(unsigned s) {
  std::vector<const Node*>& merge = shards_[s].merge;
  merge.clear();
  for (const WorkerLane& lane : lanes_) {
    for (const Node& fill : lane.fills[s]) merge.push_back(&fill);
  }
  // Canonical order: (guid words, as) groups duplicates; within a group
  // the winner is the newest logical stamp, longest expiry as tie-break,
  // sorted to the front. The sort key is a pure function of the fill
  // itself, so the merged cache state is independent of which worker
  // buffered which fill.
  std::sort(merge.begin(), merge.end(), [](const Node* a, const Node* b) {
    if (const auto order = a->guid <=> b->guid; order != 0) return order < 0;
    if (a->as != b->as) return a->as < b->as;
    if (a->entry.stamp() != b->entry.stamp()) {
      return a->entry.stamp() > b->entry.stamp();
    }
    return a->expires > b->expires;
  });
  const auto same_key = [](const Node* a, const Node* b) {
    return a->guid == b->guid && a->as == b->as;
  };
  merge.erase(std::unique(merge.begin(), merge.end(), same_key), merge.end());
  for (const Node* fill : merge) PutFill(*fill);
  for (WorkerLane& lane : lanes_) lane.fills[s].clear();
}

void ResolverCache::ApplyFills() {
  const auto pending = [](const WorkerLane& lane) {
    return std::any_of(lane.fills.begin(), lane.fills.end(),
                       [](const std::vector<Node>& b) { return !b.empty(); });
  };
  // Waking the pool costs more than an empty serial pass.
  if (std::none_of(lanes_.begin(), lanes_.end(), pending)) return;
  pool_->RunChunks(shards_.size(), [this](std::size_t s, unsigned) {
    ApplyShard(unsigned(s));
  });
}

void ResolverCache::RefreshSnapshots() {
  for (Shard& shard : shards_) {
    if (shard.snapshot_epoch == shard.epoch) continue;
    shard.snapshot_epoch = shard.epoch;
    ++snapshot_rebuilds_;
  }
}

std::uint64_t ResolverCache::evictions() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.evictions;
  return total;
}

std::size_t ResolverCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.index.size();
  return total;
}

bool ResolverCache::snapshots_fresh() const {
  return std::all_of(shards_.begin(), shards_.end(), [](const Shard& shard) {
    return shard.snapshot_epoch == shard.epoch;
  });
}

}  // namespace dmap
