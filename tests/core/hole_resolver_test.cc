#include "core/hole_resolver.h"

#include <gtest/gtest.h>

#include "bgp/prefix_gen.h"
#include "common/rng.h"

namespace dmap {
namespace {

Cidr C(const std::string& text) {
  Cidr c;
  EXPECT_TRUE(Cidr::Parse(text, &c)) << text;
  return c;
}

// Algorithm 1 for one replica as Section III-B states it, one hash at a
// time over the trie: hash, rehash past holes up to M evaluations, then the
// deputy rule. The resolver's wavefront (ResolveAll / ResolveBatch) is
// checked against it.
HostResolution ReferenceResolve(const GuidHashFamily& hashes,
                                const PrefixTable& table, int max_hashes,
                                const Guid& guid, int replica) {
  HostResolution result;
  Ipv4Address addr = hashes.Hash(guid, replica);
  for (int tries = 1;; ++tries) {
    if (const auto record = table.Lookup(addr)) {
      result.host = record->owner;
      result.hashed_address = addr;
      result.stored_address = addr;
      result.hash_count = tries;
      return result;
    }
    if (tries == max_hashes) break;
    addr = hashes.Rehash(addr, replica);
  }
  const auto nearest = table.NearestAnnounced(addr);
  EXPECT_TRUE(nearest.has_value());
  result.host = nearest->record.owner;
  result.hashed_address = addr;
  result.stored_address = nearest->address;
  result.hash_count = max_hashes;
  result.used_nearest = true;
  return result;
}

void ExpectSameResolution(const HostResolution& got,
                          const HostResolution& want) {
  ASSERT_EQ(got.host, want.host);
  ASSERT_EQ(got.stored_address, want.stored_address);
  ASSERT_EQ(got.hashed_address, want.hashed_address);
  ASSERT_EQ(got.hash_count, want.hash_count);
  ASSERT_EQ(got.used_nearest, want.used_nearest);
}

std::uint64_t CounterIn(const MetricsSnapshot& snapshot,
                        const std::string& name) {
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(HoleResolverTest, FirstHashHitWhenFullyAnnounced) {
  PrefixTable table;
  table.Announce(C("0.0.0.0/1"), 1);
  table.Announce(C("128.0.0.0/1"), 2);
  const GuidHashFamily hashes(3, 1);
  const HoleResolver resolver(hashes, table);
  const Guid g = Guid::FromSequence(7);
  const std::vector<HostResolution> all = resolver.ResolveAll(g);
  for (int i = 0; i < 3; ++i) {
    const HostResolution& r = all[std::size_t(i)];
    EXPECT_EQ(r.hash_count, 1);
    EXPECT_FALSE(r.used_nearest);
    EXPECT_EQ(r.stored_address, r.hashed_address);
    EXPECT_EQ(r.host, hashes.Hash(g, i).value() < 0x80000000u ? 1u : 2u);
  }
}

TEST(HoleResolverTest, RehashesPastHoles) {
  // Only the top half is announced: ~50% hole rate forces rehashing for
  // roughly half of the GUIDs, and every resolution must land on AS 1.
  PrefixTable table;
  table.Announce(C("128.0.0.0/1"), 1);
  const GuidHashFamily hashes(1, 2);
  const HoleResolver resolver(hashes, table, 40);
  int rehashed = 0;
  constexpr int kGuids = 2000;
  for (int i = 0; i < kGuids; ++i) {
    const HostResolution r =
        resolver.ResolveAll(Guid::FromSequence(std::uint64_t(i)))[0];
    EXPECT_EQ(r.host, 1u);
    EXPECT_FALSE(r.used_nearest);  // M=40 makes fall-through ~2^-40
    EXPECT_GE(r.stored_address.value(), 0x80000000u);
    if (r.hash_count > 1) ++rehashed;
  }
  EXPECT_NEAR(double(rehashed) / kGuids, 0.5, 0.05);
}

TEST(HoleResolverTest, RehashCountIsGeometric) {
  PrefixTable table;
  table.Announce(C("128.0.0.0/1"), 1);  // hit probability 1/2
  const GuidHashFamily hashes(1, 3);
  const HoleResolver resolver(hashes, table, 64);
  double total_hashes = 0;
  constexpr int kGuids = 5000;
  for (int i = 0; i < kGuids; ++i) {
    total_hashes +=
        resolver.ResolveAll(Guid::FromSequence(std::uint64_t(i)))[0]
            .hash_count;
  }
  // Geometric with p = 1/2: mean 2 tries.
  EXPECT_NEAR(total_hashes / kGuids, 2.0, 0.1);
}

TEST(HoleResolverTest, DeputyFallbackAfterMTries) {
  // A tiny announced island makes every hash miss: with M = 3 the resolver
  // must fall through to the nearest-announced rule.
  PrefixTable table;
  table.Announce(C("10.0.0.0/24"), 7);
  const GuidHashFamily hashes(1, 4);
  const HoleResolver resolver(hashes, table, 3);
  const Guid g = Guid::FromSequence(1);
  const HostResolution r = resolver.ResolveAll(g)[0];
  EXPECT_TRUE(r.used_nearest);
  EXPECT_EQ(r.hash_count, 3);
  EXPECT_EQ(r.host, 7u);
  // The stored address is inside the island; the hashed address is the end
  // of the 3-step chain.
  EXPECT_TRUE(C("10.0.0.0/24").Contains(r.stored_address));
  Ipv4Address chain = hashes.Hash(g, 0);
  chain = hashes.Rehash(chain, 0);
  chain = hashes.Rehash(chain, 0);
  EXPECT_EQ(r.hashed_address, chain);
}

TEST(HoleResolverTest, FallThroughProbabilityMatchesPaper) {
  // Paper, Section III-B: at ~55% announced the probability of reaching an
  // IP hole after M = 10 hashes is ~0.034% ((1 - 0.55)^10 = 0.034%).
  PrefixGenParams params;
  params.num_ases = 300;
  params.announced_fraction = 0.55;
  params.seed = 8;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily hashes(1, 5);
  const HoleResolver resolver(hashes, table, 10);
  int fallbacks = 0;
  constexpr int kGuids = 100000;
  for (int i = 0; i < kGuids; ++i) {
    if (resolver.ResolveAll(Guid::FromSequence(std::uint64_t(i)))[0]
            .used_nearest) {
      ++fallbacks;
    }
  }
  // Expected ~34 of 100k; allow generous sampling noise.
  EXPECT_LT(fallbacks, 120);
  EXPECT_GT(fallbacks, 1);
}

TEST(HoleResolverTest, DeterministicAcrossInstances) {
  // Any two gateways agree on placement — the property that lets DMap skip
  // all coordination.
  PrefixGenParams params;
  params.num_ases = 100;
  params.seed = 10;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily h1(5, 42), h2(5, 42);
  const HoleResolver r1(h1, table, 10), r2(h2, table, 10);
  for (int i = 0; i < 200; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    const std::vector<HostResolution> a = r1.ResolveAll(g);
    const std::vector<HostResolution> b = r2.ResolveAll(g);
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(a[std::size_t(k)].host, b[std::size_t(k)].host);
    }
  }
}

TEST(HoleResolverTest, ResolveAllReturnsKResults) {
  PrefixTable table;
  table.Announce(C("0.0.0.0/0"), 1);
  const GuidHashFamily hashes(5, 6);
  const HoleResolver resolver(hashes, table);
  EXPECT_EQ(resolver.ResolveAll(Guid::FromSequence(1)).size(), 5u);
  EXPECT_EQ(resolver.k(), 5);
}

TEST(HoleResolverTest, EmptyTableThrows) {
  PrefixTable table;
  const GuidHashFamily hashes(1, 7);
  const HoleResolver resolver(hashes, table, 2);
  EXPECT_THROW((void)resolver.ResolveAll(Guid::FromSequence(1)),
               std::logic_error);
}

TEST(HoleResolverTest, FastPathAgreesWithTrie) {
  // The DIR-24-8 fast path must not change a single placement decision,
  // deputy fall-throughs included: a sparse table and M = 3 make them
  // common.
  PrefixGenParams params;
  params.num_ases = 200;
  params.announced_fraction = 0.3;
  params.seed = 12;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily hashes(3, 21);
  const HoleResolver slow_resolver(hashes, table, 3);
  HoleResolver fast_resolver(hashes, table, 3);
  fast_resolver.RefreshSnapshot();
  ASSERT_TRUE(fast_resolver.snapshot_fresh());

  int deputies = 0;
  for (int i = 0; i < 5000; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    const std::vector<HostResolution> slow = slow_resolver.ResolveAll(g);
    const std::vector<HostResolution> fast = fast_resolver.ResolveAll(g);
    for (std::size_t replica = 0; replica < 3; ++replica) {
      ExpectSameResolution(fast[replica], slow[replica]);
      deputies += slow[replica].used_nearest ? 1 : 0;
    }
  }
  EXPECT_GT(deputies, 0);
}

TEST(HoleResolverTest, OwnedSnapshotAgreesWithTrie) {
  PrefixGenParams params;
  params.num_ases = 200;
  params.seed = 14;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily hashes(3, 22);
  const HoleResolver trie_resolver(hashes, table, 10);
  HoleResolver snap_resolver(hashes, table, 10);
  snap_resolver.RefreshSnapshot();
  ASSERT_TRUE(snap_resolver.snapshot_fresh());
  for (int i = 0; i < 5000; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    const std::vector<HostResolution> trie = trie_resolver.ResolveAll(g);
    const std::vector<HostResolution> snap = snap_resolver.ResolveAll(g);
    for (std::size_t replica = 0; replica < 3; ++replica) {
      ExpectSameResolution(snap[replica], trie[replica]);
    }
  }
}

TEST(HoleResolverTest, StaleSnapshotFallsBackToTrie) {
  // BGP churn after the snapshot was taken: resolutions must follow the
  // *current* trie (correctness), and RefreshSnapshot must re-arm the fast
  // path at the new epoch.
  PrefixTable table;
  table.Announce(C("0.0.0.0/1"), 1);
  const GuidHashFamily hashes(1, 23);
  HoleResolver resolver(hashes, table, 40);
  resolver.RefreshSnapshot();
  ASSERT_TRUE(resolver.snapshot_fresh());

  // Announce the other half to AS 2 — the snapshot is now stale.
  table.Announce(C("128.0.0.0/1"), 2);
  EXPECT_FALSE(resolver.snapshot_fresh());
  const HoleResolver reference(hashes, table, 40);
  for (int i = 0; i < 500; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    const HostResolution a = reference.ResolveAll(g)[0];
    const HostResolution b = resolver.ResolveAll(g)[0];
    ASSERT_EQ(a.host, b.host);
    ASSERT_EQ(a.hash_count, b.hash_count);
  }

  resolver.RefreshSnapshot();
  EXPECT_TRUE(resolver.snapshot_fresh());
  for (int i = 0; i < 500; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    ASSERT_EQ(resolver.ResolveAll(g)[0].host, reference.ResolveAll(g)[0].host);
  }
}

TEST(HoleResolverTest, ResolveAllMatchesPerReplicaResolve) {
  // The batched wavefront must return exactly what K independent scalar
  // chains return, in replica order — with and without the snapshot, and
  // at an M small enough that deputy fall-throughs are common.
  PrefixGenParams params;
  params.num_ases = 150;
  params.announced_fraction = 0.55;
  params.seed = 15;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily hashes(5, 25);
  int deputies = 0;
  for (const int max_hashes : {3, 10}) {
    for (const bool snapshot : {false, true}) {
      HoleResolver resolver(hashes, table, max_hashes);
      if (snapshot) resolver.RefreshSnapshot();
      for (int i = 0; i < 2000; ++i) {
        const Guid g = Guid::FromSequence(std::uint64_t(i));
        const std::vector<HostResolution> batch = resolver.ResolveAll(g);
        ASSERT_EQ(batch.size(), 5u);
        for (int replica = 0; replica < 5; ++replica) {
          const HostResolution one =
              ReferenceResolve(hashes, table, max_hashes, g, replica);
          ExpectSameResolution(batch[std::size_t(replica)], one);
          deputies += one.used_nearest ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(deputies, 0);
}

TEST(HoleResolverTest, ResolveAllAccountsMetricsLikeResolve) {
  // ResolveAll and ResolveBatch record one hash-evaluation count, one
  // rehash-depth sample and (on a fall-through) one deputy count per
  // resolution: the totals of resolving each replica by the scalar chain.
  // M = 3 over a half-announced space makes fall-throughs common.
  PrefixTable table;
  table.Announce(C("128.0.0.0/1"), 1);
  const GuidHashFamily hashes(4, 26);
  constexpr int kMaxHashes = 3;

  MetricsRegistry per_guid, batched;
  HoleResolver a(hashes, table, kMaxHashes), b(hashes, table, kMaxHashes);
  a.SetMetrics(&per_guid);
  b.SetMetrics(&batched);
  std::uint64_t hash_evaluations = 0, deputies = 0;
  std::vector<Guid> guids;
  for (int i = 0; i < 300; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    guids.push_back(g);
    for (int replica = 0; replica < 4; ++replica) {
      const HostResolution one =
          ReferenceResolve(hashes, table, kMaxHashes, g, replica);
      hash_evaluations += std::uint64_t(one.hash_count);
      deputies += one.used_nearest ? 1 : 0;
    }
    (void)a.ResolveAll(g);
  }
  std::vector<HostResolution> rows(guids.size() * 4);
  b.ResolveBatch(guids, rows.data());

  ASSERT_GT(deputies, 0u);
  const auto sa = per_guid.Snapshot();
  const auto sb = batched.Snapshot();
  EXPECT_EQ(CounterIn(sa, "algo1.hash_evaluations"), hash_evaluations);
  EXPECT_EQ(CounterIn(sa, "algo1.deputy_fallbacks"), deputies);
  ASSERT_EQ(sa.histograms.size(), 1u);
  EXPECT_EQ(sa.histograms[0].name, "algo1.rehash_depth");
  EXPECT_EQ(sa.histograms[0].count, guids.size() * 4);
  EXPECT_EQ(sa.histograms[0].sum, double(hash_evaluations));

  ASSERT_EQ(sa.counters.size(), sb.counters.size());
  for (std::size_t i = 0; i < sa.counters.size(); ++i) {
    EXPECT_EQ(sa.counters[i].name, sb.counters[i].name);
    EXPECT_EQ(sa.counters[i].value, sb.counters[i].value)
        << sa.counters[i].name;
  }
  ASSERT_EQ(sb.histograms.size(), 1u);
  EXPECT_EQ(sa.histograms[0].buckets, sb.histograms[0].buckets);
}

TEST(HoleResolverTest, InvalidMaxHashesThrows) {
  PrefixTable table;
  table.Announce(C("0.0.0.0/0"), 1);
  const GuidHashFamily hashes(1, 8);
  EXPECT_THROW(HoleResolver(hashes, table, 0), std::invalid_argument);
}

TEST(HoleResolverTest, ResolveBatchMatchesPerGuidResolve) {
  // The multi-GUID batch shares hash kernels and probe passes across the
  // whole batch; every row must still equal the per-replica scalar chain,
  // deputy fall-throughs (common at M = 4) included. The same buffer is
  // reused across both M values, as a serving loop reuses it.
  PrefixGenParams params;
  params.num_ases = 120;
  params.announced_fraction = 0.5;
  params.seed = 77;
  const PrefixTable table = GeneratePrefixTable(params);
  const GuidHashFamily hashes(5, 33);

  std::vector<Guid> guids;
  for (int i = 0; i < 777; ++i) {
    guids.push_back(Guid::FromSequence(std::uint64_t(i)));
  }
  std::vector<HostResolution> batch;
  batch.resize(guids.size() * 5);
  int deputies = 0;
  for (const int max_hashes : {4, 10}) {
    HoleResolver resolver(hashes, table, max_hashes);
    resolver.RefreshSnapshot();
    resolver.ResolveBatch(guids, batch.data());
    for (std::size_t g = 0; g < guids.size(); ++g) {
      for (int replica = 0; replica < 5; ++replica) {
        const HostResolution one =
            ReferenceResolve(hashes, table, max_hashes, guids[g], replica);
        SCOPED_TRACE(testing::Message() << g << "/" << replica);
        ExpectSameResolution(batch[g * 5 + std::size_t(replica)], one);
        deputies += one.used_nearest ? 1 : 0;
      }
    }
  }
  EXPECT_GT(deputies, 0);
}

TEST(HoleResolverTest, RefreshSnapshotSkipsRebuildWhenEpochUnchanged) {
  // Regression: the write-point refresh must not pay the 64 MB DIR-24-8
  // rebuild when the prefix table has not churned since the last build.
  PrefixTable table;
  table.Announce(C("0.0.0.0/1"), 1);
  const GuidHashFamily hashes(2, 5);
  HoleResolver resolver(hashes, table, 4);
  EXPECT_EQ(resolver.snapshot_rebuilds(), 0u);

  resolver.RefreshSnapshot();
  EXPECT_EQ(resolver.snapshot_rebuilds(), 1u);
  for (int i = 0; i < 10; ++i) resolver.RefreshSnapshot();
  EXPECT_EQ(resolver.snapshot_rebuilds(), 1u);  // epoch unchanged: no-op

  table.Announce(C("128.0.0.0/1"), 2);  // epoch bump
  resolver.RefreshSnapshot();
  EXPECT_EQ(resolver.snapshot_rebuilds(), 2u);
  resolver.RefreshSnapshot();
  EXPECT_EQ(resolver.snapshot_rebuilds(), 2u);
  EXPECT_TRUE(resolver.snapshot_fresh());
}

}  // namespace
}  // namespace dmap
