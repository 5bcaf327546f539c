#include "core/mapping_store.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/probe_table.h"
#include "runtime/thread_pool.h"

namespace dmap {
namespace {

MappingEntry Entry(AsId as, std::uint64_t version) {
  return MappingEntry{NaSet(NetworkAddress{as, as * 10}), version};
}

// The ShardedMappingStore must preserve MappingStore's per-(as, guid)
// semantics exactly: version gating, idempotent reapply, erase resetting
// the gate — the mapping_store_test suite transliterated to the sharded
// keyspace, run at several shard counts.
class ShardedStoreSemanticsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShardedStoreSemanticsTest, InsertAndLookup) {
  ShardedMappingStore store(100, GetParam());
  const Guid g = Guid::FromSequence(1);
  EXPECT_EQ(store.Lookup(5, g), nullptr);
  EXPECT_TRUE(store.Upsert(5, g, Entry(5, 1)));
  const MappingEntry* found = store.Lookup(5, g);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->nas.AttachedTo(5));
  EXPECT_EQ(store.size(), 1u);
  // The same GUID at a different AS is an independent replica.
  EXPECT_EQ(store.Lookup(6, g), nullptr);
}

TEST_P(ShardedStoreSemanticsTest, VersionGatePerReplica) {
  ShardedMappingStore store(100, GetParam());
  const Guid g = Guid::FromSequence(2);
  store.Upsert(7, g, Entry(6, 5));
  EXPECT_FALSE(store.Upsert(7, g, Entry(5, 4)));  // stale rejected
  EXPECT_TRUE(store.Lookup(7, g)->nas.AttachedTo(6));
  EXPECT_EQ(store.Lookup(7, g)->version, 5u);
  EXPECT_TRUE(store.Upsert(7, g, Entry(6, 5)));  // idempotent reapply
  EXPECT_TRUE(store.Upsert(7, g, Entry(8, 6)));  // newer wins
  EXPECT_TRUE(store.Lookup(7, g)->nas.AttachedTo(8));
}

TEST_P(ShardedStoreSemanticsTest, EraseResetsGate) {
  ShardedMappingStore store(100, GetParam());
  const Guid g = Guid::FromSequence(3);
  store.Upsert(1, g, Entry(1, 9));
  EXPECT_TRUE(store.Erase(1, g));
  EXPECT_FALSE(store.Erase(1, g));
  EXPECT_EQ(store.Lookup(1, g), nullptr);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Upsert(1, g, Entry(2, 1)));  // fresh entry after erase
}

TEST_P(ShardedStoreSemanticsTest, ReadMatchesLookupFreshAndStale) {
  ShardedMappingStore store(64, GetParam());
  // Unpublished phase: no refresh yet after the writes; Read answers from
  // the table all the same.
  for (int i = 0; i < 500; ++i) {
    store.Upsert(AsId(i % 64), Guid::FromSequence(std::uint64_t(i)),
                 Entry(AsId(i % 64), 1));
  }
  EXPECT_FALSE(store.snapshots_fresh());
  for (int i = 0; i < 500; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    EXPECT_EQ(store.Read(AsId(i % 64), g), store.Lookup(AsId(i % 64), g));
    EXPECT_NE(store.Read(AsId(i % 64), g), nullptr);
  }
  // Fresh phase: snapshot probes must answer identically, including
  // misses for absent (as, guid) pairs.
  store.RefreshSnapshots();
  EXPECT_TRUE(store.snapshots_fresh());
  for (int i = 0; i < 500; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    const MappingEntry* read = store.Read(AsId(i % 64), g);
    ASSERT_NE(read, nullptr);
    EXPECT_EQ(read->version, store.Lookup(AsId(i % 64), g)->version);
    EXPECT_EQ(store.Read(AsId((i + 1) % 64), g),
              store.Lookup(AsId((i + 1) % 64), g));
  }
  EXPECT_EQ(store.Read(0, Guid::FromSequence(99999)), nullptr);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedStoreSemanticsTest,
                         ::testing::Values(1u, 4u, 16u));

TEST(ShardedStoreTest, ShardOfIsDeterministicAndGuidOnly) {
  ShardedMappingStore a(10, 16);
  ShardedMappingStore b(10, 16);
  for (int i = 0; i < 100; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    EXPECT_EQ(a.ShardOf(g), b.ShardOf(g));
    EXPECT_LT(a.ShardOf(g), 16u);
  }
  ShardedMappingStore one(10, 1);
  EXPECT_EQ(one.ShardOf(Guid::FromSequence(7)), 0u);
}

TEST(ShardedStoreTest, ResolveShardCountClampsAndAutoSelects) {
  EXPECT_EQ(ShardedMappingStore::ResolveShardCount(1), 1u);
  EXPECT_EQ(ShardedMappingStore::ResolveShardCount(16), 16u);
  EXPECT_EQ(ShardedMappingStore::ResolveShardCount(1 << 20),
            ShardedMappingStore::kMaxShards);
  const unsigned auto_count = ShardedMappingStore::ResolveShardCount(0);
  EXPECT_GE(auto_count, 1u);
  EXPECT_LE(auto_count, ShardedMappingStore::kMaxShards);
  EXPECT_EQ(auto_count & (auto_count - 1), 0u);  // power of two
}

TEST(ShardedStoreTest, RefreshRebuildsOnlyDirtyShards) {
  ShardedMappingStore store(100, 8);
  for (int i = 0; i < 1000; ++i) {
    store.Upsert(AsId(i % 100), Guid::FromSequence(std::uint64_t(i)),
                 Entry(AsId(i % 100), 1));
  }
  store.RefreshSnapshots();
  const std::uint64_t after_load = store.snapshot_rebuilds();
  EXPECT_LE(after_load, 8u);  // at most one publish per shard
  EXPECT_GE(after_load, 1u);

  // No mutations since the refresh: a second refresh is a no-op.
  store.RefreshSnapshots();
  EXPECT_EQ(store.snapshot_rebuilds(), after_load);

  // Touching one GUID dirties exactly one shard.
  store.Upsert(3, Guid::FromSequence(42), Entry(3, 2));
  EXPECT_FALSE(store.snapshots_fresh());
  store.RefreshSnapshots();
  EXPECT_EQ(store.snapshot_rebuilds(), after_load + 1);
  EXPECT_TRUE(store.snapshots_fresh());
  EXPECT_EQ(store.Read(3, Guid::FromSequence(42))->version, 2u);
}

TEST(ShardedStoreTest, AccountingIsShardCountInvariant) {
  const Cidr prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 8);
  std::vector<unsigned> shard_counts = {1, 4, 16};
  std::vector<std::vector<std::size_t>> sizes_by_as;
  std::vector<std::vector<Guid>> stored_in;
  for (const unsigned shards : shard_counts) {
    ShardedMappingStore store(50, shards);
    for (int i = 0; i < 2000; ++i) {
      const AsId as = AsId(i % 50);
      const Ipv4Address addr(((i % 3 == 0) ? 0x0a000000u : 0xc0000000u) +
                             std::uint32_t(i));
      store.Upsert(as, Guid::FromSequence(std::uint64_t(i)), Entry(as, 1),
                   addr);
    }
    sizes_by_as.push_back(store.SizesByAs());
    stored_in.push_back(store.GuidsStoredIn(7, prefix));
    EXPECT_EQ(store.size(), 2000u);
    EXPECT_EQ(store.SizeAt(7), 40u);
    EXPECT_EQ(store.StorageBitsAt(7), 40u * kMappingEntryBits);
  }
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    EXPECT_EQ(sizes_by_as[i], sizes_by_as[0]);
    EXPECT_EQ(stored_in[i], stored_in[0]);
  }
  EXPECT_FALSE(stored_in[0].empty());
}

// Reference model of the sharded store: an ordered map with the same
// per-(as, guid) stamp gate, plus the set of shards written since the last
// publish, from which the expected snapshot_rebuilds() count follows.
class StoreModel {
 public:
  StoreModel(std::uint32_t num_ases, const ShardedMappingStore& store)
      : num_ases_(num_ases), store_(store) {}

  bool Upsert(AsId as, const Guid& guid, const MappingEntry& entry,
              Ipv4Address stored_address) {
    const auto it = map_.find({as, guid});
    if (it != map_.end() && entry.stamp() < it->second.first.stamp()) {
      return false;
    }
    map_[{as, guid}] = {entry, stored_address};
    dirty_.push_back(store_.ShardOf(guid));
    return true;
  }
  bool Erase(AsId as, const Guid& guid) {
    if (map_.erase({as, guid}) == 0) return false;
    dirty_.push_back(store_.ShardOf(guid));
    return true;
  }
  void Publish() {
    std::sort(dirty_.begin(), dirty_.end());
    publishes_ += std::uint64_t(
        std::unique(dirty_.begin(), dirty_.end()) - dirty_.begin());
    dirty_.clear();
  }

  const MappingEntry* Find(AsId as, const Guid& guid) const {
    const auto it = map_.find({as, guid});
    return it == map_.end() ? nullptr : &it->second.first;
  }
  std::vector<std::size_t> SizesByAs() const {
    std::vector<std::size_t> sizes(num_ases_, 0);
    for (const auto& [key, value] : map_) ++sizes[key.first];
    return sizes;
  }
  std::vector<Guid> GuidsStoredIn(AsId as, const Cidr& prefix) const {
    std::vector<Guid> guids;
    for (const auto& [key, value] : map_) {
      if (key.first == as && prefix.Contains(value.second)) {
        guids.push_back(key.second);
      }
    }
    std::sort(guids.begin(), guids.end());
    return guids;
  }
  std::size_t size() const { return map_.size(); }
  bool fresh() const { return dirty_.empty(); }
  std::uint64_t publishes() const { return publishes_; }

 private:
  std::uint32_t num_ases_;
  const ShardedMappingStore& store_;
  std::map<std::pair<AsId, Guid>, std::pair<MappingEntry, Ipv4Address>> map_;
  std::vector<unsigned> dirty_;
  std::uint64_t publishes_ = 0;
};

// Asserts that every query of `store` answers like `model`, for every key
// of the (as, guid) universe.
void ExpectAgrees(const ShardedMappingStore& store, const StoreModel& model,
                  std::uint32_t num_ases, const std::vector<Guid>& guids) {
  const Cidr prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 8);
  ASSERT_EQ(store.size(), model.size());
  ASSERT_EQ(store.SizesByAs(), model.SizesByAs());
  ASSERT_EQ(store.snapshots_fresh(), model.fresh());
  ASSERT_EQ(store.snapshot_rebuilds(), model.publishes());
  for (AsId as = 0; as < num_ases; ++as) {
    ASSERT_EQ(store.SizeAt(as), model.SizesByAs()[as]);
    ASSERT_EQ(store.GuidsStoredIn(as, prefix),
              model.GuidsStoredIn(as, prefix));
    for (const Guid& guid : guids) {
      const MappingEntry* want = model.Find(as, guid);
      const MappingEntry* read = store.Read(as, guid);
      ASSERT_EQ(read == nullptr, want == nullptr);
      ASSERT_EQ(store.Lookup(as, guid), read);
      if (want != nullptr) {
        ASSERT_EQ(*read, *want);
      }
    }
  }
}

// Seeded random interleavings of Upsert/Erase/RefreshSnapshots against the
// map reference. The key universe is small, so stamps collide (stale
// rejects), probe runs crowd and wrap, erases shift chains back, and the
// tables grow past earlier publishes and drain again.
class ShardedStoreModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShardedStoreModelTest, RandomOpsMatchMapReference) {
  constexpr std::uint32_t kAses = 6;
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 40; ++i) {
    guids.push_back(Guid::FromSequence(i));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ShardedMappingStore store(kAses, GetParam());
    StoreModel model(kAses, store);
    std::mt19937_64 rng(seed);
    int rejects = 0;
    int erases = 0;
    for (int step = 0; step < 1500; ++step) {
      const AsId as = AsId(rng() % kAses);
      const Guid& guid = guids[rng() % guids.size()];
      // Phases bias toward growth, then toward draining, then mixed.
      const int phase = (step / 250) % 3;
      const unsigned roll = unsigned(rng() % 100);
      const unsigned erase_pct = phase == 0 ? 10 : phase == 1 ? 70 : 40;
      if (roll < 8) {
        store.RefreshSnapshots();
        model.Publish();
      } else if (roll < 8 + erase_pct) {
        const bool erased = store.Erase(as, guid);
        ASSERT_EQ(erased, model.Erase(as, guid));
        erases += erased;
      } else {
        const MappingEntry entry{NaSet(NetworkAddress{AsId(rng() % 50), 1}),
                                 rng() % 4, AsId(rng() % 3)};
        const Ipv4Address stored(((rng() & 1) ? 0x0a000000u : 0xc0000000u) +
                                 std::uint32_t(rng() % 1000));
        const bool applied = store.Upsert(as, guid, entry, stored);
        ASSERT_EQ(applied, model.Upsert(as, guid, entry, stored));
        rejects += !applied;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, kAses, guids));
    }
    EXPECT_GT(rejects, 0);
    EXPECT_GT(erases, 0);
  }
}

// Growth across a publish: a table published small, then grown by more
// inserts before the next publish, reads every entry correctly before and
// after that publish.
TEST_P(ShardedStoreModelTest, GrowthAcrossPublish) {
  constexpr std::uint32_t kAses = 4;
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 300; ++i) {
    guids.push_back(Guid::FromSequence(i));
  }
  ShardedMappingStore store(kAses, GetParam());
  StoreModel model(kAses, store);
  const auto load = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const MappingEntry entry{NaSet(NetworkAddress{AsId(i % 7), 1}), 1};
      const Ipv4Address stored(0x0a000000u + std::uint32_t(i));
      ASSERT_TRUE(store.Upsert(AsId(i % kAses), guids[i], entry, stored));
      ASSERT_TRUE(model.Upsert(AsId(i % kAses), guids[i], entry, stored));
    }
  };
  load(0, 5);
  store.RefreshSnapshots();
  model.Publish();
  ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, kAses, guids));
  load(5, guids.size());  // every shard's table grows past 16 slots
  ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, kAses, guids));
  store.RefreshSnapshots();
  model.Publish();
  ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, kAses, guids));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedStoreModelTest,
                         ::testing::Values(1u, 4u, 16u));

// Erase chains that wrap past the end of the table. With one shard and at
// most 8 entries the table has 16 slots, so keys whose home slot is 14 or
// 15 run over the end into slots 0, 1, ... and push keys homed there
// further on. Erasing them in every order must shift the wrapped part of
// the run back without losing a key.
TEST(ShardedStoreTest, EraseChainsWrapPastTableEnd) {
  constexpr AsId kAs = 3;
  std::vector<Guid> keys;  // four keys homed at 14/15, then two at 0/1
  for (std::uint64_t i = 0; keys.size() < 6; ++i) {
    const Guid guid = Guid::FromSequence(i);
    const std::uint32_t home = ProbeTag(guid.Fingerprint64(), kAs) & 15u;
    if (keys.size() < 4 ? home >= 14 : home <= 1) keys.push_back(guid);
  }
  std::vector<int> order = {0, 1, 2, 3, 4, 5};
  int permutations = 0;
  do {
    ShardedMappingStore store(8, 1);
    StoreModel model(8, store);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const MappingEntry entry{NaSet(NetworkAddress{AsId(k), 1}), k + 1};
      store.Upsert(kAs, keys[k], entry);
      model.Upsert(kAs, keys[k], entry, Ipv4Address(0));
    }
    for (const int k : order) {
      ASSERT_TRUE(store.Erase(kAs, keys[std::size_t(k)]));
      model.Erase(kAs, keys[std::size_t(k)]);
      ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, 8, keys));
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 720);
}

// TSan coverage of the serving discipline: many workers Read concurrently
// against fresh snapshots, strictly separated from the serial mutate +
// refresh write points. Any read/write overlap or hidden shared mutable
// state in the read path would trip TSan here.
TEST(ShardedStoreTest, ConcurrentSnapshotReadsBetweenSerialWritePoints) {
  constexpr int kGuids = 4000;
  ShardedMappingStore store(64, 8);
  ThreadPool pool(7);
  std::uint64_t expected_hits = 0;
  for (int round = 0; round < 3; ++round) {
    // Serial write point: mutate, then publish fresh snapshots.
    for (int i = round * kGuids; i < (round + 1) * kGuids; ++i) {
      store.Upsert(AsId(i % 64), Guid::FromSequence(std::uint64_t(i)),
                   Entry(AsId(i % 64), std::uint64_t(round + 1)));
    }
    store.RefreshSnapshots();
    ASSERT_TRUE(store.snapshots_fresh());
    expected_hits += std::uint64_t((round + 1) * kGuids);

    // Parallel read phase: no writes until RunChunks returns.
    std::atomic<std::uint64_t> hits{0};
    pool.RunChunks(64, [&](std::size_t chunk, unsigned worker) {
      (void)worker;
      std::uint64_t local = 0;
      for (int i = 0; i < (round + 1) * kGuids; ++i) {
        const Guid g = Guid::FromSequence(std::uint64_t(i));
        const AsId as = AsId(i % 64);
        if (as % 64 != chunk) continue;
        if (store.Read(as, g) != nullptr) ++local;
      }
      hits.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), std::uint64_t((round + 1) * kGuids));
  }
  (void)expected_hits;
}

}  // namespace
}  // namespace dmap
