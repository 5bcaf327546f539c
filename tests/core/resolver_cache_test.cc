#include "core/resolver_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dmap {
namespace {

MappingEntry Entry(AsId as, std::uint64_t version = 1,
                   std::uint32_t writer = 0) {
  return MappingEntry{NaSet(NetworkAddress{as, 1}), version, writer};
}

CacheConfig SmallConfig(std::size_t capacity = 64, double ttl_ms = 0.0,
                        unsigned shards = 4) {
  CacheConfig config;
  config.capacity = capacity;
  config.ttl_ms = ttl_ms;
  config.shards = shards;
  return config;
}

TEST(CacheConfigTest, ParseArgBareNumberIsCapacity) {
  const CacheConfig config = CacheConfig::ParseArg("4096");
  EXPECT_EQ(config.capacity, 4096u);
  EXPECT_DOUBLE_EQ(config.ttl_ms, 0.0);
  EXPECT_TRUE(config.enabled());
}

TEST(CacheConfigTest, ParseArgKeyValuePairs) {
  const CacheConfig config =
      CacheConfig::ParseArg("capacity=1024,ttl_ms=250,shards=16");
  EXPECT_EQ(config.capacity, 1024u);
  EXPECT_DOUBLE_EQ(config.ttl_ms, 250.0);
  EXPECT_EQ(config.shards, 16u);
  EXPECT_FALSE(config.invalidate_on_update);
}

TEST(CacheConfigTest, ParseArgAcceptsBothInvalidateSpellings) {
  EXPECT_TRUE(CacheConfig::ParseArg("capacity=8,invalidate_on_update=1")
                  .invalidate_on_update);
  EXPECT_TRUE(
      CacheConfig::ParseArg("capacity=8,invalidate=true").invalidate_on_update);
  // The long spelling wins when both are present.
  EXPECT_FALSE(
      CacheConfig::ParseArg("capacity=8,invalidate=1,invalidate_on_update=0")
          .invalidate_on_update);
}

TEST(CacheConfigTest, ValidateRejectsBadFields) {
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,shards=0"),
               std::invalid_argument);
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,shards=1000"),
               std::invalid_argument);
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,ttl_ms=-1"),
               std::invalid_argument);
  // Disabled cache short-circuits field validation.
  EXPECT_NO_THROW(CacheConfig::ParseArg("capacity=0,shards=0").Validate());
}

TEST(CacheConfigTest, ParseArgRejectsTyposNarrowingAndNan) {
  // A misspelt key used to be dropped silently (TTL 0, never expires).
  EXPECT_THROW(CacheConfig::ParseArg("capacity=4096,tll_ms=500"),
               std::invalid_argument);
  // 2^32 + 1 used to narrow to one shard.
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,shards=4294967297"),
               std::runtime_error);
  // NaN used to pass Validate()'s `ttl_ms < 0` check.
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,ttl_ms=nan"),
               std::runtime_error);
  CacheConfig config = CacheConfig::ParseArg("8");
  config.ttl_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(ResolverCacheTest, ZeroCapacityConstructionThrows) {
  EXPECT_THROW(ResolverCache(SmallConfig(0)), std::invalid_argument);
}

TEST(ResolverCacheTest, SerialGetPutRoundTrip) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(1);
  EXPECT_EQ(cache.Get(7, g, SimTime::Zero()), nullptr);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  const MappingEntry* hit = cache.Get(7, g, SimTime::Seconds(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(42));
  // Same GUID, different querier AS: a distinct cache line.
  EXPECT_EQ(cache.Get(8, g, SimTime::Seconds(1)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  // Repeats: 20 GUIDs looked up 5 times, filling on each miss, miss once
  // and hit every time after.
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t i = 100; i < 120; ++i) {
      const Guid repeat = Guid::FromSequence(i);
      if (cache.Get(9, repeat, SimTime::Seconds(round)) == nullptr) {
        cache.Put(9, repeat, Entry(42), SimTime::Seconds(round));
      }
    }
  }
  EXPECT_EQ(cache.hits(), 1u + 80u);
  EXPECT_EQ(cache.misses(), 2u + 20u);
}

TEST(ResolverCacheTest, TtlExpiryEvictsOnSerialAccess) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/100.0));
  const Guid g = Guid::FromSequence(2);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  EXPECT_NE(cache.Get(7, g, SimTime::Millis(100)), nullptr);  // at the TTL
  EXPECT_EQ(cache.Get(7, g, SimTime::Millis(101)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);

  // A second Put refreshes both the value and the TTL.
  const Guid h = Guid::FromSequence(8);
  cache.Put(7, h, Entry(42), SimTime::Zero());
  cache.Put(7, h, Entry(43), SimTime::Millis(80));
  const MappingEntry* refreshed = cache.Get(7, h, SimTime::Millis(150));
  ASSERT_NE(refreshed, nullptr);  // fresh until t = 180 ms
  EXPECT_TRUE(refreshed->nas.AttachedTo(43));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResolverCacheTest, ZeroTtlNeverExpires) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/0.0));
  const Guid g = Guid::FromSequence(3);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  EXPECT_NE(cache.Get(7, g, SimTime::Seconds(1e9)), nullptr);
}

TEST(ResolverCacheTest, InvalidateDropsEveryHolder) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(4);
  const Guid other = Guid::FromSequence(5);
  for (AsId as = 1; as <= 5; ++as) {
    cache.Put(as, g, Entry(42), SimTime::Zero());
  }
  cache.Put(1, other, Entry(9), SimTime::Zero());
  EXPECT_EQ(cache.Invalidate(g), 5u);
  EXPECT_EQ(cache.invalidations(), 5u);
  EXPECT_EQ(cache.Invalidate(g), 0u);  // already gone
  for (AsId as = 1; as <= 5; ++as) {
    EXPECT_EQ(cache.Get(as, g, SimTime::Seconds(1)), nullptr);
  }
  // Unrelated GUIDs survive.
  EXPECT_NE(cache.Get(1, other, SimTime::Seconds(1)), nullptr);
}

TEST(ResolverCacheTest, ProbeSeesOnlyPublishedSnapshots) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(6);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  // Writes since the last RefreshSnapshots: Probe must miss although the
  // shard's table already holds the entry.
  EXPECT_FALSE(cache.snapshots_fresh());
  EXPECT_EQ(cache.Probe(7, g, SimTime::Seconds(1)), nullptr);
  cache.RefreshSnapshots();
  EXPECT_TRUE(cache.snapshots_fresh());
  const MappingEntry* hit = cache.Probe(7, g, SimTime::Seconds(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(42));
  // A later mutation stales only the touched shard's snapshot.
  cache.Put(8, g, Entry(42), SimTime::Seconds(2));
  EXPECT_EQ(cache.Probe(7, g, SimTime::Seconds(2)), nullptr);
}

TEST(ResolverCacheTest, ProbeRespectsTtlWithoutEvicting) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/100.0));
  const Guid g = Guid::FromSequence(7);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  cache.RefreshSnapshots();
  EXPECT_NE(cache.Probe(7, g, SimTime::Millis(100)), nullptr);
  EXPECT_EQ(cache.Probe(7, g, SimTime::Millis(101)), nullptr);
  // The snapshot path never mutates: the entry is still resident.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ResolverCacheTest, ApplyFillsIsLaneOrderIndependent) {
  // The same set of fills, buffered under opposite worker assignments,
  // must produce identical cache contents: the merge sorts by a pure
  // function of the fill itself, never by lane index.
  struct Fill {
    AsId as;
    std::uint64_t seq;
    std::uint64_t version;
  };
  const std::vector<Fill> fills = {
      {10, 1, 1}, {11, 1, 3}, {10, 2, 2}, {11, 2, 1}, {10, 1, 2},
  };
  ResolverCache forward(SmallConfig());
  ResolverCache reversed(SmallConfig());
  forward.EnsureWorkers(2);
  reversed.EnsureWorkers(2);
  for (std::size_t i = 0; i < fills.size(); ++i) {
    const Fill& f = fills[i];
    const Guid g = Guid::FromSequence(f.seq);
    forward.RecordFill(unsigned(i % 2), f.as, g, Entry(AsId(20), f.version),
                       SimTime::Zero());
    reversed.RecordFill(unsigned((i + 1) % 2), f.as, g,
                        Entry(AsId(20), f.version), SimTime::Zero());
  }
  forward.ApplyFills();
  reversed.ApplyFills();
  EXPECT_EQ(forward.size(), 4u);  // (10,1) deduped: one entry per key
  EXPECT_EQ(forward.size(), reversed.size());
  for (const Fill& f : fills) {
    const Guid g = Guid::FromSequence(f.seq);
    const MappingEntry* a = forward.Get(f.as, g, SimTime::Seconds(1));
    const MappingEntry* b = reversed.Get(f.as, g, SimTime::Seconds(1));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->version, b->version);
  }
  // Duplicate key (as=10, seq=1): the newest logical stamp wins.
  EXPECT_EQ(
      forward.Get(10, Guid::FromSequence(1), SimTime::Seconds(1))->version,
      2u);
}

TEST(ResolverCacheTest, ApplyFillsIdenticalForEveryLaneCount) {
  // The shard-parallel merge must reproduce the one-lane serial merge bit
  // for bit: the same fills, spread over 1, 2, 4 and 7 lanes, applied
  // serially (EnsureWorkers 1: a one-lane pool, no thread) and on pools of
  // 2, 4 and 7 lanes. Duplicate keys carry different stamps and expiries, and the
  // capacity (3 per shard) forces evictions inside every merge.
  constexpr std::uint32_t kAses = 6;
  constexpr double kTtlMs = 40.0;
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 24; ++i) {
    guids.push_back(Guid::FromSequence(500 + i));
  }
  struct Fill {
    AsId as;
    std::size_t guid;
    MappingEntry entry;
    SimTime now;
  };
  std::vector<std::vector<Fill>> rounds(4);
  std::mt19937_64 rng(11);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (int i = 0; i < 90; ++i) {
      const std::uint64_t version = rng() % 4;
      const AsId writer = AsId(rng() % 2);
      rounds[r].push_back(Fill{
          AsId(rng() % kAses), std::size_t(rng() % guids.size()),
          MappingEntry{NaSet(NetworkAddress{AsId(2 * version + writer), 1}),
                       version, writer},
          SimTime::Millis(double(10 * r + rng() % 10))});
    }
  }
  // Everything a later reader can observe: each key's Probe answer before
  // and after its fills could expire, the counters, and which keys a
  // stream of fresh Puts evicts, in order.
  const auto observe = [&](unsigned lanes, unsigned workers) {
    ResolverCache cache(SmallConfig(24, kTtlMs, /*shards=*/8));
    cache.EnsureWorkers(workers);
    std::vector<std::uint64_t> seen;
    const auto snapshot = [&](SimTime now) {
      cache.RefreshSnapshots();
      for (const Guid& g : guids) {
        for (AsId a = 0; a < kAses; ++a) {
          for (const SimTime t : {now, now + SimTime::Millis(kTtlMs)}) {
            const MappingEntry* e = cache.Probe(a, g, t);
            seen.push_back(e == nullptr ? ~std::uint64_t{0}
                                        : e->version * 2 + e->writer);
          }
        }
      }
      seen.push_back(cache.size());
      seen.push_back(cache.evictions());
      seen.push_back(cache.snapshot_rebuilds());
    };
    std::size_t next_lane = 0;
    for (const std::vector<Fill>& round : rounds) {
      for (const Fill& f : round) {
        cache.RecordFill(unsigned(next_lane++ % lanes), f.as, guids[f.guid],
                         f.entry, f.now);
      }
      cache.ApplyFills();
      snapshot(round.front().now);
    }
    for (std::uint64_t i = 0; i < 30; ++i) {
      cache.Put(AsId(i % kAses), Guid::FromSequence(900 + i), Entry(1),
                SimTime::Millis(50));
      snapshot(SimTime::Millis(50));
    }
    EXPECT_GT(cache.evictions(), 0u);
    return seen;
  };
  const std::vector<std::uint64_t> serial = observe(1, 1);  // no thread
  const std::pair<unsigned, unsigned> runs[] = {
      {1, 4}, {2, 2}, {2, 4}, {4, 4}, {7, 7}};  // (lanes, EnsureWorkers)
  for (const auto& [lanes, workers] : runs) {
    EXPECT_EQ(observe(lanes, workers), serial)
        << "lanes " << lanes << " workers " << workers;
  }
}

TEST(ResolverCacheTest, WorkerTalliesFoldIntoTotals) {
  ResolverCache cache(SmallConfig());
  cache.EnsureWorkers(3);
  cache.TallyProbe(0, true);
  cache.TallyProbe(1, true);
  cache.TallyProbe(2, false);
  cache.TallyStaleServed(1);
  cache.TallyStaleServed(2);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stale_served(), 2u);
}

TEST(ResolverCacheTest, CapacityOverflowEvictsLru) {
  // One shard so the LRU order is global; capacity 3.
  ResolverCache cache(SmallConfig(3, 0.0, /*shards=*/1));
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.Put(7, Guid::FromSequence(i), Entry(42), SimTime::Zero());
  }
  // Touch 0 so the tail is 1; the next insert evicts it.
  EXPECT_NE(cache.Get(7, Guid::FromSequence(0), SimTime::Seconds(1)), nullptr);
  cache.Put(7, Guid::FromSequence(3), Entry(42), SimTime::Seconds(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(7, Guid::FromSequence(1), SimTime::Seconds(3)), nullptr);
  EXPECT_NE(cache.Get(7, Guid::FromSequence(0), SimTime::Seconds(3)), nullptr);
}

TEST(ResolverCacheTest, SnapshotRebuildsOnlyDirtyShards) {
  ResolverCache cache(SmallConfig(64, 0.0, /*shards=*/4));
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.Put(7, Guid::FromSequence(i), Entry(42), SimTime::Zero());
  }
  cache.RefreshSnapshots();
  const std::uint64_t after_first = cache.snapshot_rebuilds();
  EXPECT_GE(after_first, 1u);
  cache.RefreshSnapshots();  // nothing dirty: no work
  EXPECT_EQ(cache.snapshot_rebuilds(), after_first);
  cache.Put(7, Guid::FromSequence(0), Entry(43, 2), SimTime::Seconds(1));
  cache.RefreshSnapshots();  // exactly one shard went stale
  EXPECT_EQ(cache.snapshot_rebuilds(), after_first + 1);
}

// The list + map LRU the cache was before its shards became slab-backed
// tables, kept as the reference: same sharding, capacity split, expiry,
// publish and fill-merge rules, written the straightforward way.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config),
        per_shard_((config.capacity + config.shards - 1) / config.shards),
        shards_(config.shards) {}

  const MappingEntry* Get(AsId as, const Guid& guid, SimTime now) {
    Shard& shard = ShardOf(guid);
    const auto it = shard.index.find({as, guid});
    if (it == shard.index.end()) {
      ++misses;
      return nullptr;
    }
    if (it->second->expires < now) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      ++shard.epoch;
      ++evictions;
      ++misses;
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++hits;
    return &shard.lru.front().entry;
  }

  void Put(AsId as, const Guid& guid, const MappingEntry& entry, SimTime now) {
    PutExpiring(Cached{as, guid, entry, Expiry(now)});
  }

  std::size_t Invalidate(const Guid& guid) {
    Shard& shard = ShardOf(guid);
    std::size_t dropped = 0;
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->guid != guid) {
        ++it;
        continue;
      }
      shard.index.erase({it->as, it->guid});
      it = shard.lru.erase(it);
      ++dropped;
    }
    shard.epoch += dropped;
    invalidations += dropped;
    return dropped;
  }

  void RecordFill(AsId as, const Guid& guid, const MappingEntry& entry,
                  SimTime now) {
    fills_.push_back(Cached{as, guid, entry, Expiry(now)});
  }

  // Sorted by (guid, as, stamp, expiry); the last fill of each key wins.
  void ApplyFills() {
    std::sort(fills_.begin(), fills_.end(),
              [](const Cached& a, const Cached& b) {
                if (a.guid != b.guid) return a.guid < b.guid;
                if (a.as != b.as) return a.as < b.as;
                if (a.entry.stamp() != b.entry.stamp()) {
                  return a.entry.stamp() < b.entry.stamp();
                }
                return a.expires < b.expires;
              });
    for (std::size_t i = 0; i < fills_.size(); ++i) {
      if (i + 1 < fills_.size() && fills_[i + 1].guid == fills_[i].guid &&
          fills_[i + 1].as == fills_[i].as) {
        continue;
      }
      PutExpiring(fills_[i]);
    }
    fills_.clear();
  }

  void RefreshSnapshots() {
    for (Shard& shard : shards_) {
      if (shard.published == shard.epoch) continue;
      shard.published = shard.epoch;
      ++snapshot_rebuilds;
    }
  }

  const MappingEntry* Probe(AsId as, const Guid& guid, SimTime now) const {
    const Shard& shard = shards_[guid.Fingerprint64() % shards_.size()];
    if (shard.published != shard.epoch) return nullptr;
    const auto it = shard.index.find({as, guid});
    if (it == shard.index.end() || it->second->expires < now) return nullptr;
    return &it->second->entry;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.lru.size();
    return total;
  }
  bool snapshots_fresh() const {
    return std::all_of(shards_.begin(), shards_.end(), [](const Shard& s) {
      return s.published == s.epoch;
    });
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t snapshot_rebuilds = 0;

 private:
  struct Cached {
    AsId as;
    Guid guid;
    MappingEntry entry;
    SimTime expires;
  };
  struct Shard {
    std::list<Cached> lru;  // front = most recent
    std::map<std::pair<AsId, Guid>, std::list<Cached>::iterator> index;
    std::uint64_t epoch = 0;
    std::uint64_t published = 0;
  };

  Shard& ShardOf(const Guid& guid) {
    return shards_[guid.Fingerprint64() % shards_.size()];
  }
  SimTime Expiry(SimTime now) const {
    return config_.ttl_ms > 0.0 ? now + SimTime::Millis(config_.ttl_ms)
                                : SimTime::Millis(1e300);
  }
  void PutExpiring(const Cached& cached) {
    Shard& shard = ShardOf(cached.guid);
    const auto it = shard.index.find({cached.as, cached.guid});
    if (it != shard.index.end()) {
      it->second->entry = cached.entry;
      it->second->expires = cached.expires;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(cached);
      shard.index[{cached.as, cached.guid}] = shard.lru.begin();
      if (shard.lru.size() > per_shard_) {
        shard.index.erase({shard.lru.back().as, shard.lru.back().guid});
        shard.lru.pop_back();
        ++evictions;
      }
    }
    ++shard.epoch;
  }

  CacheConfig config_;
  std::size_t per_shard_;
  std::vector<Shard> shards_;
  std::vector<Cached> fills_;
};

// Seeded Put/Get/Invalidate/RecordFill+ApplyFills/RefreshSnapshots/Probe
// sequences against the reference at a small capacity and a short TTL, so
// evictions, expiry on Get, invalidations and duplicate fills are all
// frequent. Every counter must match after every step, and so must the
// Probe answer for every key of the universe — including the misses of
// shards with unpublished writes and of expired entries. Since a Probe of
// a published shard sees the shard's whole contents, that also pins each
// eviction's victim.
class ResolverCacheModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResolverCacheModelTest, RandomOpsMatchListLruReference) {
  constexpr std::uint32_t kAses = 5;
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    guids.push_back(Guid::FromSequence(100 + i));
  }
  for (const double ttl_ms : {30.0, 0.0}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CacheConfig config = SmallConfig(12, ttl_ms, GetParam());
      ResolverCache cache(config);
      ReferenceCache model(config);
      cache.EnsureWorkers(3);
      std::mt19937_64 rng(seed);
      SimTime now = SimTime::Zero();
      for (int step = 0; step < 3000; ++step) {
        now += SimTime::Millis(double(rng() % 6));
        const AsId as = AsId(rng() % kAses);
        const Guid& guid = guids[rng() % guids.size()];
        // One write per stamp: equal stamps carry equal entries.
        const std::uint64_t version = rng() % 3;
        const AsId writer = AsId(rng() % 2);
        const MappingEntry entry{
            NaSet(NetworkAddress{AsId(2 * version + writer), 1}), version,
            writer};
        const unsigned roll = unsigned(rng() % 100);
        if (roll < 25) {
          cache.Put(as, guid, entry, now);
          model.Put(as, guid, entry, now);
        } else if (roll < 45) {
          const MappingEntry* got = cache.Get(as, guid, now);
          const MappingEntry* want = model.Get(as, guid, now);
          ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
          if (want != nullptr) {
            ASSERT_EQ(*got, *want);
          }
        } else if (roll < 52) {
          ASSERT_EQ(cache.Invalidate(guid), model.Invalidate(guid));
        } else if (roll < 80) {
          cache.RecordFill(unsigned(rng() % 3), as, guid, entry, now);
          model.RecordFill(as, guid, entry, now);
        } else if (roll < 88) {
          cache.ApplyFills();
          model.ApplyFills();
        } else if (roll < 96) {
          cache.RefreshSnapshots();
          model.RefreshSnapshots();
        }
        ASSERT_EQ(cache.hits(), model.hits) << "step " << step;
        ASSERT_EQ(cache.misses(), model.misses);
        ASSERT_EQ(cache.evictions(), model.evictions);
        ASSERT_EQ(cache.invalidations(), model.invalidations);
        ASSERT_EQ(cache.snapshot_rebuilds(), model.snapshot_rebuilds);
        ASSERT_EQ(cache.snapshots_fresh(), model.snapshots_fresh());
        ASSERT_EQ(cache.size(), model.size());
        for (const Guid& g : guids) {
          for (AsId a = 0; a < kAses; ++a) {
            const MappingEntry* got = cache.Probe(a, g, now);
            const MappingEntry* want = model.Probe(a, g, now);
            ASSERT_EQ(got == nullptr, want == nullptr)
                << "step " << step << " as " << a;
            if (want != nullptr) {
              ASSERT_EQ(*got, *want);
            }
          }
        }
      }
      EXPECT_GT(model.evictions, 0u);
      EXPECT_GT(model.invalidations, 0u);
      EXPECT_GT(model.hits, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ResolverCacheModelTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace dmap
