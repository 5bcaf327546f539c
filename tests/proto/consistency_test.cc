// The quorum/read-repair discipline end to end: convergence of the
// version-gated store under adversarial delivery orders, write-quorum
// completion and failure semantics on the wire, read fan-out with
// max-stamp resolution and read-repair, pairwise partitions, and the
// anti-entropy round. DESIGN.md section 14 is the contract under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dmap_service.h"
#include "core/mapping_store.h"
#include "fault/fault_plan.h"
#include "fault/retry_policy.h"
#include "obs/probe_trace.h"
#include "proto/network.h"
#include "sim/environment.h"

namespace dmap {
namespace {

// ---------------------------------------------------------------------------
// Store-level property: the version gate makes replica writes a semilattice.

MappingEntry MakeEntry(std::uint64_t version, AsId writer) {
  MappingEntry entry;
  entry.version = version;
  entry.writer = writer;
  entry.nas.Add(NetworkAddress{writer, std::uint32_t(version)});
  return entry;
}

// Any permutation of the same write set, with arbitrary duplication,
// converges both stores to the unique max-stamp entry — the property the
// whole repair machinery (read-repair, anti-entropy, migrate handoff)
// leans on when it re-sends writes without coordination.
TEST(ConsistencyPropertyTest, ShuffledDuplicatedUpsertsConverge) {
  const Guid g = Guid::FromSequence(42);

  std::vector<MappingEntry> writes;
  for (std::uint64_t version = 1; version <= 6; ++version) {
    for (const AsId writer : {AsId(3), AsId(7), AsId(11)}) {
      writes.push_back(MakeEntry(version, writer));
    }
  }
  const MappingEntry expected = MakeEntry(6, 11);  // unique max stamp

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Every write delivered twice, in a seed-dependent order.
    std::vector<MappingEntry> delivery = writes;
    delivery.insert(delivery.end(), writes.begin(), writes.end());
    Rng rng(seed);
    for (std::size_t i = delivery.size(); i > 1; --i) {
      std::swap(delivery[i - 1], delivery[rng.NextBounded(i)]);
    }

    MappingStore flat;
    ShardedMappingStore sharded(/*num_ases=*/16, /*num_shards=*/4);
    for (const MappingEntry& entry : delivery) {
      flat.Upsert(g, entry);
      sharded.Upsert(/*as=*/5, g, entry);
    }

    const MappingEntry* flat_final = flat.Lookup(g);
    const MappingEntry* sharded_final = sharded.Lookup(5, g);
    ASSERT_NE(flat_final, nullptr) << "seed " << seed;
    ASSERT_NE(sharded_final, nullptr) << "seed " << seed;
    EXPECT_EQ(*flat_final, expected) << "seed " << seed;
    EXPECT_EQ(*sharded_final, expected) << "seed " << seed;

    // Idempotence at the fixed point: replaying the winner (an equal-stamp
    // overwrite, the shape a duplicated repair takes) changes nothing.
    flat.Upsert(g, expected);
    sharded.Upsert(5, g, expected);
    EXPECT_EQ(*flat.Lookup(g), expected);
    EXPECT_EQ(*sharded.Lookup(5, g), expected);
  }
}

// ---------------------------------------------------------------------------
// Wire-level quorum semantics.

class ConsistencyTest : public testing::Test {
 protected:
  ConsistencyTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  ProtocolNetworkOptions Options() {
    ProtocolNetworkOptions o;
    o.k = 3;
    o.local_replica = false;
    return o;
  }

  // The probe order a client at `querier` uses, from a closed-form
  // reference configured like `options`.
  std::vector<PlannedProbe> ReferencePlan(
      const ProtocolNetworkOptions& options, const Guid& guid,
      NetworkAddress na, AsId querier) {
    DMapOptions ref;
    ref.k = options.k;
    ref.local_replica = options.local_replica;
    DMapService reference(env_.graph, env_.table, ref);
    (void)reference.Insert(guid, na);
    return reference.Plan(guid, querier);
  }

  std::optional<UpdateResult> Insert(ProtocolNetwork& net, const Guid& g,
                                     NetworkAddress na) {
    std::optional<UpdateResult> result;
    net.InsertAsync(g, na, [&](const UpdateResult& r) { result = r; });
    net.simulator().Run();
    return result;
  }

  std::optional<LookupResult> Lookup(ProtocolNetwork& net, const Guid& g,
                                     AsId querier) {
    std::optional<LookupResult> result;
    net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
    net.simulator().Run();
    return result;
  }

  SimEnvironment env_;
};

// Fewer reachable replicas than W is a *loud* failure: the write reports
// kQuorumFailed, and the replicas that did apply keep the entry — never a
// silent partial write in either direction.
TEST_F(ConsistencyTest, QuorumFailureIsNeverSilentPartial) {
  ProtocolNetworkOptions options = Options();  // W = majority of 3 = 2
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(21);
  const NetworkAddress na{10, 1};

  const auto first = Insert(net, g, na);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, ResolverStatus::kOk);
  ASSERT_EQ(first->replicas.size(), 3u);

  // One replica down: the majority is still reachable.
  net.FailAs(first->replicas[0]);
  const auto second = Insert(net, g, NetworkAddress{10, 2});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, ResolverStatus::kOk);
  EXPECT_EQ(net.quorum_failures(), 0u);

  // Two down: only one replica can apply — below W = 2.
  net.FailAs(first->replicas[1]);
  const auto third = Insert(net, g, NetworkAddress{10, 3});
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->status, ResolverStatus::kQuorumFailed);
  EXPECT_GT(third->latency_ms, 0.0);
  EXPECT_EQ(net.quorum_failures(), 1u);

  // The survivor holds the failed write's version (no rollback: repair
  // converges the rest once the dead recover); the dead replicas are
  // stuck at the last version they acknowledged.
  const MappingEntry* survivor =
      net.node(first->replicas[2]).store().Lookup(g);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->version, third->version);
  const MappingEntry* dead = net.node(first->replicas[0]).store().Lookup(g);
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->version, first->version);
}

// W = 1 is the paper's fire-and-wait-all mode: the same two-failure
// scenario still reports success, exactly like the pre-quorum protocol.
TEST_F(ConsistencyTest, LegacyWriteModeNeverFailsQuorum) {
  ProtocolNetworkOptions options = Options();
  options.write_quorum = 1;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(22);

  const auto first = Insert(net, g, NetworkAddress{10, 1});
  ASSERT_TRUE(first.has_value());
  net.FailAs(first->replicas[0]);
  net.FailAs(first->replicas[1]);
  const auto second = Insert(net, g, NetworkAddress{10, 2});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, ResolverStatus::kOk);
  EXPECT_EQ(net.quorum_failures(), 0u);
}

// The textbook invariant: overlapping quorums (W + R > replica set size)
// mean a fault-free read always includes at least one replica that applied
// the latest committed write — zero stale reads, every lookup current.
TEST_F(ConsistencyTest, OverlappingQuorumsReadTheirWrites) {
  ProtocolNetworkOptions options = Options();
  options.write_quorum = 2;
  options.read_quorum = 2;  // W + R = 4 > K = 3
  ProtocolNetwork net(env_.graph, env_.table, options);

  std::vector<Guid> guids;
  for (std::uint64_t seq = 300; seq < 330; ++seq) {
    guids.push_back(Guid::FromSequence(seq));
  }
  // Two writes per GUID, racing in flight: the stamp gate settles every
  // replica on version 2 regardless of arrival order.
  for (const Guid& g : guids) {
    net.InsertAsync(g, NetworkAddress{10, 1}, [](const UpdateResult&) {});
    net.InsertAsync(g, NetworkAddress{10, 2}, [](const UpdateResult&) {});
  }
  net.simulator().Run();

  int found = 0;
  for (std::size_t i = 0; i < guids.size(); ++i) {
    const AsId querier = AsId(3 + 31 * i) % env_.graph.num_nodes();
    const auto result = Lookup(net, guids[i], querier);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->found);
    EXPECT_TRUE(result->nas.Contains(NetworkAddress{10, 2}))
        << "lookup " << i << " returned a stale version";
    ++found;
  }
  EXPECT_EQ(found, 30);
  EXPECT_EQ(net.stale_reads(), 0u);
}

// R = 1 against a stale first replica is the measurable violation: the
// lookup returns the old version and the stale-read counter says so.
TEST_F(ConsistencyTest, SingleReadQuorumCountsStaleReads) {
  ProtocolNetworkOptions options = Options();  // W = 2 keeps commits tracked
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(23);
  const AsId querier = 123;

  const auto v1 = Insert(net, g, NetworkAddress{10, 1});
  const auto v2 = Insert(net, g, NetworkAddress{10, 2});
  ASSERT_TRUE(v1.has_value() && v2.has_value());

  // Rewind the first-probe replica to version 1: a crash that lost the
  // second write, restored from an old copy.
  const auto plan = ReferencePlan(options, g, NetworkAddress{10, 1}, querier);
  const AsId stale_host = plan[0].host;
  MappingEntry old_entry;
  old_entry.version = v1->version;
  old_entry.writer = 10;
  old_entry.nas.Add(NetworkAddress{10, 1});
  net.node(stale_host).store().Clear();
  ASSERT_TRUE(net.node(stale_host).store().Upsert(g, old_entry));

  const auto result = Lookup(net, g, querier);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_TRUE(result->nas.Contains(NetworkAddress{10, 1}));  // the stale NA
  EXPECT_EQ(net.stale_reads(), 1u);
}

// R = K fans out to every replica: the max-stamp answer wins even when the
// lowest-RTT replica is stale, and the stale replier is read-repaired.
TEST_F(ConsistencyTest, ReadFanoutReturnsMaxStampAndRepairsStaleReplica) {
  ProtocolNetworkOptions options = Options();
  options.write_quorum = 2;
  options.read_quorum = 3;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(24);
  const AsId querier = 123;

  const auto v1 = Insert(net, g, NetworkAddress{10, 1});
  const auto v2 = Insert(net, g, NetworkAddress{10, 2});
  ASSERT_TRUE(v1.has_value() && v2.has_value());

  const auto plan = ReferencePlan(options, g, NetworkAddress{10, 1}, querier);
  const AsId stale_host = plan[0].host;
  MappingEntry old_entry;
  old_entry.version = v1->version;
  old_entry.writer = 10;
  old_entry.nas.Add(NetworkAddress{10, 1});
  net.node(stale_host).store().Clear();
  ASSERT_TRUE(net.node(stale_host).store().Upsert(g, old_entry));

  const auto result = Lookup(net, g, querier);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  // The fan-out saw both versions and returned the newer one...
  EXPECT_TRUE(result->nas.Contains(NetworkAddress{10, 2}));
  EXPECT_EQ(net.stale_reads(), 0u);
  // ...and pushed it back at the stale replier.
  EXPECT_EQ(net.read_repairs(), 1u);
  const MappingEntry* repaired = net.node(stale_host).store().Lookup(g);
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->version, v2->version);
}

// A read-quorum stream charges its trace rows the way the sequential walk
// does (ProbeEvent::rtt_ms is the time charged): the 'T' row of a replica
// that exhausted its retry budget is the sum of every adaptive timeout
// armed on it, and the hit its stream then claims costs only its RTT.
TEST_F(ConsistencyTest, ReadQuorumTimeoutRowChargesEveryArmedTimeout) {
  ProtocolNetworkOptions options = Options();
  options.read_quorum = 2;
  options.probe_retries = 2;
  const Guid g = Guid::FromSequence(31);
  const NetworkAddress na{10, 1};
  const AsId querier = 77;
  const auto plan = ReferencePlan(options, g, na, querier);
  ASSERT_NE(plan[0].host, plan[1].host);
  ASSERT_NE(plan[0].host, plan[2].host);
  // A base timeout below the dead replica's RTT: the 1.5x RTT floor binds
  // on the first transmission and the backoff on the later ones.
  options.failure_timeout_ms = plan[0].rtt;
  ProtocolNetwork net(env_.graph, env_.table, options);
  ASSERT_TRUE(Insert(net, g, na).has_value());

  ProbeTracer tracer;
  net.SetTracer(&tracer);
  net.FailAs(plan[0].host);
  const auto result = Lookup(net, g, querier);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 3);
  EXPECT_EQ(net.retransmissions(), 2u);

  double armed = 0.0;
  for (int retry = 0; retry <= options.probe_retries; ++retry) {
    armed += AdaptiveTimeoutMs(options.failure_timeout_ms, retry,
                               options.retry_backoff, plan[0].rtt);
  }
  const std::vector<ProbeTrace> traces = tracer.Drain();
  ASSERT_EQ(traces.size(), 1u);
  std::size_t timeouts = 0;
  for (const ProbeEvent& probe : traces[0].probes) {
    if (probe.outcome == ProbeOutcome::kTimeout) {
      ++timeouts;
      EXPECT_EQ(probe.replica, plan[0].host);
      EXPECT_EQ(probe.rtt_ms, armed);
    } else {
      EXPECT_EQ(probe.outcome, ProbeOutcome::kHit);
      const auto entry = std::find_if(
          plan.begin(), plan.end(),
          [&](const auto& p) { return p.host == probe.replica; });
      ASSERT_NE(entry, plan.end());
      EXPECT_NEAR(probe.rtt_ms, entry->rtt, 1e-9);
    }
  }
  EXPECT_EQ(timeouts, 1u);
  EXPECT_NEAR(result->latency_ms, armed + plan[2].rtt, 1e-9);
}

// A pairwise partition silently eats the probe to the first replica (both
// endpoints stay up); the client times out and falls through, exactly like
// a crashed destination — but only for this one pair.
TEST_F(ConsistencyTest, PartitionDropsOnlyTheCutPair) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(25);
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  ASSERT_TRUE(Insert(net, g, na).has_value());

  const auto plan = ReferencePlan(options, g, na, querier);
  ASSERT_NE(plan[0].host, plan[1].host);
  ASSERT_NE(plan[1].host, querier);

  FaultPlan fault_plan;
  PartitionWindow window;
  window.a = querier;
  window.b = plan[0].host;
  fault_plan.partitions.push_back(window);  // [0, forever)
  net.ApplyFaultPlan(fault_plan, /*seed=*/4);

  const std::uint64_t dropped_before = net.messages_dropped();
  const auto result = Lookup(net, g, querier);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 2);  // cut pair timed out, next replica hit
  const double expected_timeout =
      std::max(options.failure_timeout_ms, 1.5 * plan[0].rtt);
  EXPECT_NEAR(result->latency_ms, expected_timeout + plan[1].rtt, 1e-4);
  EXPECT_EQ(net.messages_dropped(), dropped_before + 1);
}

// One anti-entropy round refills a wiped replica from the freshest copy,
// and a second round over a converged system sends nothing.
TEST_F(ConsistencyTest, AntiEntropyRefillsWipedReplica) {
  ProtocolNetworkOptions options = Options();
  options.anti_entropy_budget = 8;
  ProtocolNetwork net(env_.graph, env_.table, options);

  std::vector<Guid> guids;
  std::vector<std::vector<AsId>> replicas;
  for (std::uint64_t seq = 400; seq < 405; ++seq) {
    const Guid g = Guid::FromSequence(seq);
    const auto result = Insert(net, g, NetworkAddress{10, 1});
    ASSERT_TRUE(result.has_value());
    guids.push_back(g);
    replicas.push_back(result->replicas);
  }

  // One host crashes and loses its whole store (every replica it held).
  const AsId wiped = replicas[0][0];
  net.node(wiped).store().Clear();

  const int sent = net.RunAntiEntropyRound();
  EXPECT_GT(sent, 0);
  EXPECT_EQ(net.anti_entropy_repairs(), std::uint64_t(sent));
  net.simulator().Run();  // deliver the repair writes

  for (std::size_t i = 0; i < guids.size(); ++i) {
    for (const AsId host : replicas[i]) {
      EXPECT_NE(net.node(host).store().Lookup(guids[i]), nullptr)
          << "guid " << i << " missing at replica " << host;
    }
  }
  // Converged: the next full sweep finds nothing to push.
  EXPECT_EQ(net.RunAntiEntropyRound(), 0);
}

// A network built with anti_entropy_budget = 0 never repairs: the round
// returns 0 and sends nothing, however stale its replicas are.
TEST_F(ConsistencyTest, ZeroBudgetRoundSendsNothing) {
  ProtocolNetworkOptions options = Options();
  options.anti_entropy_budget = 0;
  ProtocolNetwork net(env_.graph, env_.table, options);

  const Guid g = Guid::FromSequence(410);
  const auto result = Insert(net, g, NetworkAddress{10, 1});
  ASSERT_TRUE(result.has_value());
  const AsId wiped = result->replicas[0];
  net.node(wiped).store().Clear();

  const std::uint64_t sent_before = net.messages_sent();
  EXPECT_EQ(net.RunAntiEntropyRound(), 0);
  EXPECT_EQ(net.messages_sent(), sent_before);
  EXPECT_EQ(net.anti_entropy_repairs(), 0u);
  net.simulator().Run();
  EXPECT_EQ(net.messages_sent(), sent_before);
  EXPECT_EQ(net.node(wiped).store().Lookup(g), nullptr);
}

}  // namespace
}  // namespace dmap
