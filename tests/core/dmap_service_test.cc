#include "core/dmap_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/churn.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class DMapServiceTest : public testing::Test {
 protected:
  DMapServiceTest() : env_(BuildEnvironment(EnvironmentParams::Scaled(300))) {}

  DMapOptions Options(int k = 3) {
    DMapOptions o;
    o.k = k;
    return o;
  }

  SimEnvironment env_;
};

TEST_F(DMapServiceTest, InsertThenLookupFinds) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(1);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  EXPECT_EQ(up.replicas.size(), 3u);
  EXPECT_GT(up.latency_ms, 0.0);
  EXPECT_EQ(up.version, 1u);

  const LookupResult r = service.Lookup(g, 200);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.nas.AttachedTo(10));
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_GE(r.attempts, 1);
}

TEST_F(DMapServiceTest, LookupOfUnknownGuidMisses) {
  DMapService service(env_.graph, env_.table, Options());
  const LookupResult r = service.Lookup(Guid::FromSequence(99), 5);
  EXPECT_FALSE(r.found);
  // The querier paid for probing every replica.
  EXPECT_EQ(r.attempts, 3);
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST_F(DMapServiceTest, ReplicasStoredAtResolvedHosts) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(2);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  for (const AsId host : up.replicas) {
    const MappingEntry* e = service.StoreLookup(host, g);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->nas.AttachedTo(10));
  }
  // Consistent with the resolver's deterministic placement.
  const auto resolutions = service.resolver().ResolveAll(g);
  for (std::size_t i = 0; i < resolutions.size(); ++i) {
    EXPECT_EQ(up.replicas[i], resolutions[i].host);
  }
}

TEST_F(DMapServiceTest, LocalReplicaStoredAtAttachmentAs) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(3);
  (void)service.Insert(g, NetworkAddress{42, 1});
  EXPECT_NE(service.StoreLookup(42, g), nullptr);
}

TEST_F(DMapServiceTest, LocalLookupIsFast) {
  // A querier in the GUID's own AS resolves in one intra-AS round trip.
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(4);
  (void)service.Insert(g, NetworkAddress{42, 1});
  const LookupResult r = service.Lookup(g, 42);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.served_locally);
  EXPECT_DOUBLE_EQ(r.latency_ms, 2.0 * env_.graph.IntraLatencyMs(42));
}

TEST_F(DMapServiceTest, LocalReplicaDisabledFallsBackToGlobal) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(4);
  (void)service.Insert(g, NetworkAddress{42, 1});
  const LookupResult r = service.Lookup(g, 42);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.served_locally);
}

TEST_F(DMapServiceTest, LookupLatencyEqualsBestReplicaRtt) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(5);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});

  const AsId querier = 123;
  double best = 1e18;
  for (const AsId host : up.replicas) {
    best = std::min(best, service.oracle().RttMs(querier, host));
  }
  const LookupResult r = service.Lookup(g, querier);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.latency_ms, best);
  EXPECT_EQ(r.attempts, 1);
}

TEST_F(DMapServiceTest, UpdateLatencyIsMaxReplicaRtt) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.write_quorum = 1;  // legacy mode: done when every replica acks
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(6);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  double worst = 0;
  for (const AsId host : up.replicas) {
    worst = std::max(worst, service.oracle().RttMs(10, host));
  }
  EXPECT_DOUBLE_EQ(up.latency_ms, worst);
}

TEST_F(DMapServiceTest, UpdateLatencyIsMajorityAckByDefault) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(6);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  std::vector<double> acks;
  for (const AsId host : up.replicas) {
    acks.push_back(service.oracle().RttMs(10, host));
  }
  std::sort(acks.begin(), acks.end());
  const int w = ResolveQuorum(0, int(acks.size()));
  ASSERT_GE(w, 2);  // K=5 globals: majority is 3
  EXPECT_DOUBLE_EQ(up.latency_ms, acks[std::size_t(w - 1)]);
  EXPECT_EQ(up.status, ResolverStatus::kOk);
}

TEST_F(DMapServiceTest, UpdateFailsQuorumWhenTooFewReplicasReachable) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(6);
  const UpdateResult seeded = service.Insert(g, NetworkAddress{10, 1});
  // Fail all but one replica host: 1 ack < majority of 5.
  std::vector<AsId> down(seeded.replicas.begin() + 1,
                         seeded.replicas.end());
  service.SetFailedAses(down);
  const UpdateResult up = service.Update(g, NetworkAddress{10, 2});
  EXPECT_EQ(up.status, ResolverStatus::kQuorumFailed);
  // The surviving replica still applied the write: no silent rollback,
  // read-repair converges the rest once they heal.
  EXPECT_GT(up.latency_ms, 0.0);
}

TEST_F(DMapServiceTest, MobilityUpdateMovesMapping) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(7);
  (void)service.Insert(g, NetworkAddress{10, 1});
  const UpdateResult up = service.Update(g, NetworkAddress{20, 2});
  EXPECT_EQ(up.version, 2u);

  const LookupResult r = service.Lookup(g, 100);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.nas.AttachedTo(20));
  EXPECT_FALSE(r.nas.AttachedTo(10));
  // Local copy moved: old AS no longer stores it (unless it is a replica).
  bool old_is_replica = false;
  for (const AsId host : up.replicas) old_is_replica |= host == 10;
  if (!old_is_replica) {
    EXPECT_EQ(service.StoreLookup(10, g), nullptr);
  }
  EXPECT_NE(service.StoreLookup(20, g), nullptr);
}

TEST_F(DMapServiceTest, UpdateOfUnknownGuidThrows) {
  DMapService service(env_.graph, env_.table, Options());
  EXPECT_THROW(service.Update(Guid::FromSequence(8), NetworkAddress{1, 1}),
               std::invalid_argument);
}

TEST_F(DMapServiceTest, MultiHomingAddsNa) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(9);
  // Attaching needs a registered GUID.
  EXPECT_THROW(service.AddAttachment(g, NetworkAddress{20, 2}),
               std::invalid_argument);
  (void)service.Insert(g, NetworkAddress{10, 1});
  (void)service.AddAttachment(g, NetworkAddress{20, 2});
  const LookupResult r = service.Lookup(g, 100);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.nas.size(), 2);
  EXPECT_TRUE(r.nas.AttachedTo(10));
  EXPECT_TRUE(r.nas.AttachedTo(20));
  // Duplicate attachment is an error.
  EXPECT_THROW(service.AddAttachment(g, NetworkAddress{20, 2}),
               std::invalid_argument);
}

TEST_F(DMapServiceTest, DeregisterRemovesEverywhere) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(10);
  (void)service.Insert(g, NetworkAddress{10, 1});
  EXPECT_GT(service.total_stored_entries(), 0u);
  EXPECT_TRUE(service.Deregister(g));
  EXPECT_FALSE(service.Deregister(g));
  EXPECT_EQ(service.total_stored_entries(), 0u);
  EXPECT_FALSE(service.Lookup(g, 100).found);
}

TEST_F(DMapServiceTest, FailedReplicaCostsTimeoutAndFallsThrough) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.failure_timeout_ms = 500.0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(11);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});

  // Fail the best replica for querier 77.
  const auto plan = service.Plan(g, 77);
  service.SetFailedAses({plan[0].host});
  const LookupResult r = service.Lookup(g, 77);
  if (plan[1].host != plan[0].host) {
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_DOUBLE_EQ(r.latency_ms, 500.0 + plan[1].rtt);
  }
  (void)up;
}

TEST_F(DMapServiceTest, AllReplicasFailedMeansNotFound) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(12);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  service.SetFailedAses(up.replicas);
  const LookupResult r = service.Lookup(g, 77);
  EXPECT_FALSE(r.found);
  EXPECT_DOUBLE_EQ(r.latency_ms,
                   options.failure_timeout_ms * double(options.k));
  // Recovery restores resolution.
  service.SetFailedAses({});
  EXPECT_TRUE(service.Lookup(g, 77).found);
}

TEST_F(DMapServiceTest, LocalReplicaSurvivesGlobalFailures) {
  // Section III-D-3 + III-C: even with every global replica down, a
  // same-AS querier resolves locally.
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(13);
  const UpdateResult up = service.Insert(g, NetworkAddress{42, 1});
  std::vector<AsId> failed = up.replicas;
  // Keep the attachment AS itself alive.
  std::erase(failed, 42u);
  service.SetFailedAses(failed);
  const LookupResult r = service.Lookup(g, 42);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.served_locally);
}

TEST_F(DMapServiceTest, HopCountSelectionStillResolves) {
  DMapOptions options = Options();
  options.selection = ReplicaSelection::kFewestHops;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(14);
  (void)service.Insert(g, NetworkAddress{10, 1});
  const LookupResult r = service.Lookup(g, 200);
  ASSERT_TRUE(r.found);
  // The chosen replica has the minimum hop count among replicas.
  const auto resolutions = service.resolver().ResolveAll(g);
  std::uint32_t best_hops = ~0u;
  for (const auto& res : resolutions) {
    best_hops = std::min(best_hops, service.oracle().Hops(200, res.host));
  }
  if (!r.served_locally) {
    EXPECT_EQ(service.oracle().Hops(200, r.serving_as), best_hops);
  }
}

TEST_F(DMapServiceTest, LookupWithStaleViewRecoversViaOtherReplicas) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(15);
  (void)service.Insert(g, NetworkAddress{10, 1});
  // A fully consistent view behaves identically to Lookup().
  const LookupResult consistent = service.LookupWithView(g, 200, env_.table);
  const LookupResult direct = service.Lookup(g, 200);
  EXPECT_TRUE(consistent.found);
  EXPECT_EQ(consistent.found, direct.found);
  EXPECT_DOUBLE_EQ(consistent.latency_ms, direct.latency_ms);
}

TEST_F(DMapServiceTest, RehomeAfterChurnRestoresFirstTryLookups) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(16);
  (void)service.Insert(g, NetworkAddress{10, 1});
  // Rehome against an unchanged table is a no-op.
  EXPECT_EQ(service.Rehome(g), 0);
  EXPECT_EQ(service.Rehome(Guid::FromSequence(999)), 0);  // unknown GUID
}

TEST_F(DMapServiceTest, StaleViewPlusFailuresCompose) {
  // Churn and router failure at once: the probe walk must charge a miss
  // RTT for displaced replicas and a timeout for dead ones, in plan order.
  DMapOptions options = Options(5);
  options.local_replica = false;
  options.failure_timeout_ms = 400.0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(77);
  (void)service.Insert(g, NetworkAddress{10, 1});

  // Fail the best replica; lookups must still resolve via the rest even
  // when the view is the (consistent) table — then verify latency
  // accounting includes both penalty types when we also displace storage
  // by deregistering and re-inserting nothing (miss at every replica).
  const auto plan = service.Plan(g, 99);
  service.SetFailedAses({plan[0].host});
  const LookupResult ok = service.LookupWithView(g, 99, env_.table);
  if (plan[1].host != plan[0].host) {
    ASSERT_TRUE(ok.found);
    EXPECT_DOUBLE_EQ(ok.latency_ms, 400.0 + plan[1].rtt);
  }

  // Unknown GUID with one dead replica: all K probed, one timeout + the
  // remaining (K-1) miss round trips.
  const Guid unknown = Guid::FromSequence(78);
  const auto unknown_plan = service.Plan(unknown, 99);
  service.SetFailedAses({unknown_plan[0].host});
  const LookupResult miss = service.LookupWithView(unknown, 99, env_.table);
  EXPECT_FALSE(miss.found);
  double expected = 400.0;
  for (std::size_t i = 1; i < unknown_plan.size(); ++i) {
    if (unknown_plan[i].host == unknown_plan[0].host) {
      expected += 400.0;  // duplicate replica host also counts as failed
    } else {
      expected += unknown_plan[i].rtt;
    }
  }
  EXPECT_DOUBLE_EQ(miss.latency_ms, expected);
}

TEST_F(DMapServiceTest, GuidsStoredInFindsPlacedMappings) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(30);
  (void)service.Insert(g, NetworkAddress{10, 1});

  // Each replica must be discoverable at its host via the prefix covering
  // its stored address.
  for (const HostResolution& r : service.resolver().ResolveAll(g)) {
    const auto record = env_.table.Lookup(r.stored_address);
    ASSERT_TRUE(record.has_value());
    const auto guids = service.GuidsStoredIn(r.host, record->prefix);
    EXPECT_NE(std::find(guids.begin(), guids.end(), g), guids.end())
        << "replica at AS " << r.host << " not indexed by "
        << record->prefix.ToString();
  }
  // A prefix covering none of the stored addresses yields nothing. Use a
  // reserved (never-announced) block.
  EXPECT_TRUE(service
                  .GuidsStoredIn(service.resolver().ResolveAll(g)[0].host,
                                 Cidr(Ipv4Address::FromOctets(10, 0, 0, 0), 8))
                  .empty());
}

TEST_F(DMapServiceTest, WithdrawalRepairViaGuidsStoredInAndRehome) {
  // Closed-form Section III-D-1 withdrawal: enumerate the mappings stored
  // under a prefix, withdraw it, re-home them, and verify first-try
  // lookups continue.
  DMapOptions options = Options();
  options.local_replica = false;
  // The service resolves against env_.table by reference.
  DMapService service(env_.graph, env_.table, options);
  for (int i = 0; i < 200; ++i) {
    (void)service.Insert(Guid::FromSequence(std::uint64_t(1000 + i)),
                         NetworkAddress{AsId(i % env_.graph.num_nodes()), 1});
  }

  // Find a populated prefix.
  Cidr victim;
  AsId owner = kInvalidAs;
  std::vector<Guid> affected;
  for (const PrefixRecord& record : env_.table.AllPrefixes()) {
    affected = service.GuidsStoredIn(record.owner, record.prefix);
    if (!affected.empty()) {
      victim = record.prefix;
      owner = record.owner;
      break;
    }
  }
  ASSERT_NE(owner, kInvalidAs);

  ASSERT_TRUE(env_.table.Withdraw(victim));
  int moved = 0;
  for (const Guid& g : affected) moved += service.Rehome(g);
  EXPECT_GT(moved, 0);

  for (const Guid& g : affected) {
    const LookupResult r = service.Lookup(g, 123);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.attempts, 1);
  }
  // Restore the table for other tests sharing the fixture (none do, but
  // keep the environment consistent).
  env_.table.Announce(victim, owner);
}

TEST_F(DMapServiceTest, TotalStoredEntriesTracksEveryWritePath) {
  // total_stored_entries() is the store's own size. After every kind of
  // write it must equal both the per-AS sizes summed and a count from the
  // placement rule: each live GUID's distinct global replica hosts plus
  // its attachment AS (the local replica).
  DMapService service(env_.graph, env_.table, Options(4));
  std::vector<std::pair<Guid, AsId>> live;  // GUID -> attachment AS
  const auto check = [&](const char* step) {
    const std::vector<std::size_t> sizes = service.StoreSizes();
    EXPECT_EQ(service.total_stored_entries(),
              std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0}))
        << step;
    std::uint64_t placed = 0;
    for (const auto& [guid, attached] : live) {
      std::vector<AsId> hosts{attached};
      for (const HostResolution& r : service.resolver().ResolveAll(guid)) {
        if (std::find(hosts.begin(), hosts.end(), r.host) == hosts.end()) {
          hosts.push_back(r.host);
        }
      }
      placed += hosts.size();
    }
    EXPECT_EQ(service.total_stored_entries(), placed) << step;
  };
  const AsId num_ases = AsId(env_.graph.num_nodes());
  for (std::uint64_t i = 0; i < 120; ++i) {
    const AsId as = AsId(i * 7 % num_ases);
    (void)service.Insert(Guid::FromSequence(i), NetworkAddress{as, 1});
    live.emplace_back(Guid::FromSequence(i), as);
  }
  check("Insert");

  const AsId moved_to = AsId((live[0].second + 11) % num_ases);
  (void)service.Update(live[0].first, NetworkAddress{moved_to, 2});
  live[0].second = moved_to;
  check("Update");

  std::vector<std::pair<Guid, NetworkAddress>> batch;
  for (std::size_t i = 1; i <= 16; ++i) {
    batch.emplace_back(live[i].first, NetworkAddress{AsId(17), 3});
    live[i].second = 17;
  }
  (void)service.BatchUpdate(batch);
  check("BatchUpdate");

  Cidr victim;
  AsId owner = kInvalidAs;
  std::vector<Guid> affected;
  for (const PrefixRecord& record : env_.table.AllPrefixes()) {
    affected = service.GuidsStoredIn(record.owner, record.prefix);
    if (!affected.empty()) {
      victim = record.prefix;
      owner = record.owner;
      break;
    }
  }
  ASSERT_NE(owner, kInvalidAs);
  ASSERT_TRUE(env_.table.Withdraw(victim));
  int rehomed = 0;
  for (const Guid& g : affected) rehomed += service.Rehome(g);
  EXPECT_GT(rehomed, 0);
  check("Rehome");

  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(service.Deregister(live[i].first));
  }
  live.erase(live.begin(), live.begin() + 40);
  check("Deregister");
  env_.table.Announce(victim, owner);
}

TEST_F(DMapServiceTest, MeasureUpdateLatencyOffReturnsMinusOne) {
  DMapOptions options = Options();
  options.measure_update_latency = false;
  DMapService service(env_.graph, env_.table, options);
  const UpdateResult up =
      service.Insert(Guid::FromSequence(17), NetworkAddress{10, 1});
  EXPECT_DOUBLE_EQ(up.latency_ms, -1.0);
}

TEST_F(DMapServiceTest, InvalidArgumentsThrow) {
  DMapService service(env_.graph, env_.table, Options());
  EXPECT_THROW(service.Insert(Guid::FromSequence(18),
                              NetworkAddress{env_.graph.num_nodes(), 1}),
               std::invalid_argument);
  EXPECT_THROW(service.Lookup(Guid::FromSequence(18),
                              env_.graph.num_nodes()),
               std::invalid_argument);
  // Out-of-range attachment ASes on a registered GUID are rejected before
  // any replica write, and leave the mapping as it was.
  const Guid g = Guid::FromSequence(19);
  (void)service.Insert(g, NetworkAddress{10, 1});
  EXPECT_THROW(service.AddAttachment(
                   g, NetworkAddress{env_.graph.num_nodes() + 5, 2}),
               std::invalid_argument);
  EXPECT_THROW(
      service.Update(g, NetworkAddress{env_.graph.num_nodes() + 5, 2}),
      std::invalid_argument);
  const LookupResult after = service.Lookup(g, 10);
  ASSERT_TRUE(after.found);
  EXPECT_EQ(after.nas.size(), 1);
  DMapOptions bad;
  bad.k = 0;
  EXPECT_THROW(DMapService(env_.graph, env_.table, bad),
               std::invalid_argument);
}

// Property sweep: for every K, lookups of inserted GUIDs always succeed and
// larger K never increases the per-query latency (same seed, same hash
// family prefix — h_1..h_k is a prefix of h_1..h_{k+1}).
class DMapServiceKSweep : public DMapServiceTest,
                          public testing::WithParamInterface<int> {};

TEST_P(DMapServiceKSweep, AllLookupsResolve) {
  DMapOptions options = Options(GetParam());
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  for (int i = 0; i < 50; ++i) {
    (void)service.Insert(Guid::FromSequence(std::uint64_t(i)),
                         NetworkAddress{AsId(i % env_.graph.num_nodes()), 1});
  }
  for (int i = 0; i < 50; ++i) {
    const LookupResult r = service.Lookup(Guid::FromSequence(std::uint64_t(i)),
                                          AsId((i * 7) % 300));
    ASSERT_TRUE(r.found) << "guid " << i;
    EXPECT_EQ(r.attempts, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, DMapServiceKSweep,
                         testing::Values(1, 2, 3, 5, 8));

TEST_F(DMapServiceTest, LargerKNeverHurtsLatency) {
  // With the same hash seed, the replica set for K is a prefix of the set
  // for K+1, so min-RTT selection can only improve.
  std::vector<double> latencies;
  for (const int k : {1, 3, 5}) {
    DMapOptions options = Options(k);
    options.local_replica = false;
    DMapService service(env_.graph, env_.table, options);
    const Guid g = Guid::FromSequence(20);
    (void)service.Insert(g, NetworkAddress{10, 1});
    latencies.push_back(service.Lookup(g, 250).latency_ms);
  }
  EXPECT_LE(latencies[1], latencies[0]);
  EXPECT_LE(latencies[2], latencies[1]);
}

TEST_F(DMapServiceTest, OptionsValidationNamesTheBadField) {
  // One validator for both executors: the closed form and the wire
  // protocol reject every bad shared field, naming it.
  const auto expect_rejects = [](const auto& construct,
                                 const std::string& field) {
    try {
      construct();
      ADD_FAILURE() << "expected invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<
      std::pair<std::string, std::function<void(ProtocolOptions&)>>>
      shared = {
          {"k", [](ProtocolOptions& o) { o.k = 0; }},
          {"max_hashes", [](ProtocolOptions& o) { o.max_hashes = 0; }},
          {"failure_timeout_ms",
           [](ProtocolOptions& o) { o.failure_timeout_ms = -1.0; }},
          {"failure_timeout_ms",
           [nan](ProtocolOptions& o) { o.failure_timeout_ms = nan; }},
          {"probe_retries", [](ProtocolOptions& o) { o.probe_retries = -1; }},
          {"retry_backoff", [](ProtocolOptions& o) { o.retry_backoff = 0.5; }},
          {"retry_backoff",
           [nan](ProtocolOptions& o) { o.retry_backoff = nan; }},
          {"write_quorum", [](ProtocolOptions& o) { o.write_quorum = -1; }},
      };
  for (const auto& [field, corrupt] : shared) {
    SCOPED_TRACE(field);
    DMapOptions closed = Options();
    corrupt(closed);
    expect_rejects(
        [&] { DMapService service(env_.graph, env_.table, closed); }, field);
    ProtocolNetworkOptions wire;
    corrupt(wire);
    expect_rejects(
        [&] { ProtocolNetwork net(env_.graph, env_.table, wire); }, field);
  }

  DMapOptions bad_shards = Options();
  bad_shards.store_shards = -1;
  expect_rejects(
      [&] { DMapService service(env_.graph, env_.table, bad_shards); },
      "store_shards");
  DMapOptions bad_cache_shards = Options();
  bad_cache_shards.cache.capacity = 16;
  bad_cache_shards.cache.shards = 0;
  expect_rejects(
      [&] { DMapService service(env_.graph, env_.table, bad_cache_shards); },
      "shards");
  DMapOptions bad_cache_ttl = Options();
  bad_cache_ttl.cache.capacity = 16;
  bad_cache_ttl.cache.ttl_ms = -1.0;
  expect_rejects(
      [&] { DMapService service(env_.graph, env_.table, bad_cache_ttl); },
      "ttl_ms");
  ProtocolNetworkOptions bad_read;
  bad_read.read_quorum = 0;
  expect_rejects(
      [&] { ProtocolNetwork net(env_.graph, env_.table, bad_read); },
      "read_quorum");
  ProtocolNetworkOptions bad_budget;
  bad_budget.anti_entropy_budget = -1;
  expect_rejects(
      [&] { ProtocolNetwork net(env_.graph, env_.table, bad_budget); },
      "anti_entropy_budget");
}

TEST_F(DMapServiceTest, HubLabelsAndDijkstraRunIdentically) {
  // Attaching hub labels changes only the speed of the closed form: a
  // labelled and a label-less service answer one seeded workload
  // bit-identically, probe for probe, through Lookup and through
  // LookupWithView under a churned view, with a failed AS and retries.
  PrefixTable view = env_.table;
  Rng rng(17);
  ChurnParams churn;
  churn.withdraw_space_fraction = 0.10;
  churn.announce_fraction = 0.05;
  churn.num_ases = env_.graph.num_nodes();
  ApplyChurn(view, SampleChurn(env_.table, churn, rng));

  DMapOptions options = Options(5);
  options.probe_retries = 2;
  WorkloadParams params;
  params.num_guids = 200;
  params.seed = 21;
  WorkloadGenerator workload(env_.graph, params);
  const std::vector<InsertOp> inserts = workload.Inserts();
  const std::vector<LookupOp> lookups = workload.Lookups(1000);
  const HubLabels* labels = EnsureHubLabels(env_, /*threads=*/1);

  struct Run {
    std::vector<LookupResult> results;
    std::uint64_t dijkstra_runs = 0;
  };
  const auto run = [&](const HubLabels* attached) {
    DMapService service(env_.graph, env_.table, options);
    service.oracle().SetHubLabels(attached);
    ProbeTracer tracer;
    service.SetTracer(&tracer);
    for (const InsertOp& op : inserts) (void)service.Insert(op.guid, op.na);
    // Fail the first replica the first lookup probes.
    const LookupOp& first = lookups.front();
    service.SetFailedAses(
        {service.Plan(first.guid, first.source).front().host});
    Run out;
    for (const LookupOp& op : lookups) {
      out.results.push_back(service.Lookup(op.guid, op.source));
      out.results.push_back(service.LookupWithView(op.guid, op.source, view));
    }
    out.dijkstra_runs = service.oracle().dijkstra_runs();
    return out;
  };
  const Run hub = run(labels);
  const Run dijkstra = run(nullptr);
  EXPECT_EQ(hub.dijkstra_runs, 0u);
  EXPECT_GT(dijkstra.dijkstra_runs, 0u);

  ASSERT_EQ(hub.results.size(), dijkstra.results.size());
  std::size_t failed = 0, missed = 0;
  for (std::size_t i = 0; i < hub.results.size(); ++i) {
    SCOPED_TRACE(i);
    const LookupResult& a = hub.results[i];
    const LookupResult& b = dijkstra.results[i];
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.nas, b.nas);
    EXPECT_EQ(a.serving_as, b.serving_as);
    EXPECT_EQ(a.served_locally, b.served_locally);
    ASSERT_TRUE(a.trace.has_value());
    ASSERT_TRUE(b.trace.has_value());
    EXPECT_EQ(a.trace->op, b.trace->op);
    EXPECT_EQ(a.trace->latency_ms, b.trace->latency_ms);
    EXPECT_EQ(a.trace->hash_evaluations, b.trace->hash_evaluations);
    ASSERT_EQ(a.trace->probes.size(), b.trace->probes.size());
    for (std::size_t p = 0; p < a.trace->probes.size(); ++p) {
      EXPECT_EQ(a.trace->probes[p].replica, b.trace->probes[p].replica);
      EXPECT_EQ(a.trace->probes[p].rtt_ms, b.trace->probes[p].rtt_ms);
      EXPECT_EQ(a.trace->probes[p].outcome, b.trace->probes[p].outcome);
      failed += a.trace->probes[p].outcome == ProbeOutcome::kFailed;
      missed += a.trace->probes[p].outcome == ProbeOutcome::kMiss;
    }
  }
  // The scenario exercised both fall-through paths.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(missed, 0u);
}

TEST_F(DMapServiceTest, CacheServesRepeatsPerAsAndScoresStaleness) {
  DMapOptions options = Options();
  options.cache.capacity = 1024;
  options.cache.ttl_ms = 30'000.0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(1);
  (void)service.Insert(g, NetworkAddress{10, 1});

  const LookupResult first = service.Lookup(g, 200);
  ASSERT_TRUE(first.found);
  EXPECT_FALSE(first.served_from_cache);
  service.RefreshReadSnapshots();  // applies and publishes the fill
  const LookupResult second = service.Lookup(g, 200);
  ASSERT_TRUE(second.found);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.attempts, 0);
  EXPECT_DOUBLE_EQ(second.latency_ms, 2.0 * env_.graph.IntraLatencyMs(200));
  // Another AS has its own cold copy.
  EXPECT_FALSE(service.Lookup(g, 100).served_from_cache);

  // TTL-only coherence: after the host moves, AS 200 keeps serving the old
  // NA until the TTL runs out, and the stale serve is scored.
  (void)service.Update(g, NetworkAddress{20, 2});
  service.RefreshReadSnapshots();
  const LookupResult stale = service.Lookup(g, 200);
  EXPECT_TRUE(stale.served_from_cache);
  EXPECT_TRUE(stale.nas.AttachedTo(10));
  EXPECT_EQ(service.cache()->stale_served(), 1u);
  service.AdvanceCacheTime(SimTime::Seconds(40));
  const LookupResult fresh = service.Lookup(g, 200);
  EXPECT_FALSE(fresh.served_from_cache);
  EXPECT_TRUE(fresh.nas.AttachedTo(20));
}

TEST_F(DMapServiceTest, CacheHitsAnswerLikeTheProbePathWithoutProbing) {
  // 10,000 (GUID, querier) pairs over 16 querier ASes. With ttl_ms = 0
  // (never expires) and every pair warmed and published, a cached service
  // answers exactly as an uncached one; every pair the local replica does
  // not answer is a hit, and a hit skips the probe walk altogether: no
  // attempts and no hash evaluations.
  constexpr std::uint64_t kGuids = 10'000;
  DMapOptions options = Options();
  options.measure_update_latency = false;
  DMapService plain(env_.graph, env_.table, options);
  options.cache.capacity = 1 << 17;
  options.cache.ttl_ms = 0;
  DMapService cached(env_.graph, env_.table, options);
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    const NetworkAddress na{AsId(i % env_.graph.num_nodes()), 1};
    (void)plain.Insert(Guid::FromSequence(i), na);
    (void)cached.Insert(Guid::FromSequence(i), na);
  }
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    (void)cached.Lookup(Guid::FromSequence(i), AsId(i % 16));
  }
  cached.RefreshReadSnapshots();
  ProbeTracer tracer(1u, 1);  // traces every lookup
  cached.SetTracer(&tracer);

  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    const Guid guid = Guid::FromSequence(i);
    const LookupResult want = plain.Lookup(guid, AsId(i % 16));
    const LookupResult got = cached.Lookup(guid, AsId(i % 16));
    ASSERT_EQ(got.found, want.found) << "pair " << i;
    EXPECT_TRUE(got.nas == want.nas) << "pair " << i;
    EXPECT_EQ(got.served_from_cache, !want.served_locally) << "pair " << i;
    if (!got.served_from_cache) continue;
    ++hits;
    EXPECT_EQ(got.attempts, 0) << "pair " << i;
    ASSERT_TRUE(got.trace.has_value());
    EXPECT_EQ(got.trace->hash_evaluations, 0) << "pair " << i;
  }
  EXPECT_GT(hits, kGuids * 9 / 10);
}

TEST_F(DMapServiceTest, MetricsAccountInsertsAndLookups) {
  DMapService service(env_.graph, env_.table, Options(3));
  MetricsRegistry registry;
  service.SetMetrics(&registry);
  (void)service.Insert(Guid::FromSequence(1), NetworkAddress{10, 1});
  (void)service.Lookup(Guid::FromSequence(1), 200);  // hit
        (void)service.Lookup(Guid::FromSequence(2), 200);  // miss: probes all 3
              std::uint64_t inserts = 0, lookups = 0, hits = 0, misses = 0, probes = 0;
  std::uint64_t latency_count = 0;
  for (const CounterSnapshot& c : registry.Snapshot().counters) {
    if (c.name == "dmap.inserts") inserts = c.value;
    if (c.name == "dmap.lookups") lookups = c.value;
    if (c.name == "dmap.lookup_hits") hits = c.value;
    if (c.name == "dmap.lookup_misses") misses = c.value;
    if (c.name == "dmap.probes") probes = c.value;
  }
  for (const HistogramSnapshot& h : registry.Snapshot().histograms) {
    if (h.name == "dmap.lookup_latency_ms") latency_count = h.count;
  }
  EXPECT_EQ(inserts, 1u);
  EXPECT_EQ(lookups, 2u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
  EXPECT_GE(probes, 4u);  // 1 hit probe + 3 full-walk misses
  EXPECT_EQ(latency_count, 2u);
}

TEST_F(DMapServiceTest, TracerCapturesProbeWalkAndFailures) {
  DMapOptions options = Options(3);
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  ProbeTracer tracer(1, 1);
  service.SetTracer(&tracer);

  const Guid g = Guid::FromSequence(5);
  const UpdateResult up = service.Insert(g, NetworkAddress{10, 1});
  // Fail the preferred (first-probed) replica: the trace must show the
  // timeout fall-through before the eventual hit.
  service.SetFailedAses({service.Lookup(g, 200).serving_as});
  const LookupResult r = service.Lookup(g, 200);
  ASSERT_TRUE(r.found);
  ASSERT_TRUE(r.trace.has_value());
  const ProbeTrace& trace = *r.trace;
  EXPECT_EQ(trace.guid_fp, g.Fingerprint64());
  EXPECT_GE(trace.attempts, 2);
  ASSERT_GE(trace.probes.size(), 2u);
  EXPECT_EQ(trace.probes.front().outcome, ProbeOutcome::kFailed);
  EXPECT_DOUBLE_EQ(trace.probes.front().rtt_ms,
                   options.failure_timeout_ms);
  EXPECT_EQ(trace.probes.back().outcome, ProbeOutcome::kHit);
  EXPECT_GT(up.hash_evaluations, 0);
  // Drained traces include the earlier unfailed lookup plus this one.
  EXPECT_EQ(tracer.Drain().size(), 2u);
}

TEST_F(DMapServiceTest, StoreShardsOptionValidates) {
  DMapOptions bad = Options();
  bad.store_shards = -1;
  EXPECT_THROW(DMapService(env_.graph, env_.table, bad),
               std::invalid_argument);
  bad.store_shards = 100000;
  EXPECT_THROW(DMapService(env_.graph, env_.table, bad),
               std::invalid_argument);
}

TEST_F(DMapServiceTest, ResultsAreIdenticalForEveryShardCount) {
  // The determinism contract extended to sharding: every externally
  // observable result — lookup outcomes, per-AS store sizes, entry totals,
  // stored-GUID enumeration — is byte-identical for any store_shards value.
  struct Observed {
    std::vector<std::size_t> sizes;
    std::size_t total = 0;
    std::vector<std::tuple<bool, double, int, AsId>> lookups;
    std::vector<Guid> enumerated;
  };
  auto run = [&](int shards) {
    DMapOptions options = Options(5);
    options.store_shards = shards;
    DMapService service(env_.graph, env_.table, options);
    for (std::uint64_t i = 0; i < 200; ++i) {
      (void)service.Insert(Guid::FromSequence(i),
                           NetworkAddress{AsId(i % 250), 1});
    }
    for (std::uint64_t i = 0; i < 50; ++i) {
      (void)service.Update(Guid::FromSequence(i),
                           NetworkAddress{AsId((i + 7) % 250), 1});
    }
    for (std::uint64_t i = 0; i < 25; ++i) {
      (void)service.Deregister(Guid::FromSequence(i * 3));
    }
    service.RefreshReadSnapshots();
    Observed obs;
    obs.sizes = service.StoreSizes();
    obs.total = service.total_stored_entries();
    for (std::uint64_t i = 0; i < 220; ++i) {
      const LookupResult r =
          service.Lookup(Guid::FromSequence(i), AsId(i % 299));
      obs.lookups.emplace_back(r.found, r.latency_ms, r.attempts,
                               r.serving_as);
    }
    obs.enumerated = service.GuidsStoredIn(
        42, Cidr(Ipv4Address::FromOctets(0, 0, 0, 0), 0));
    return obs;
  };
  const Observed baseline = run(1);
  EXPECT_GT(baseline.total, 0u);
  for (const int shards : {4, 16}) {
    const Observed sharded = run(shards);
    EXPECT_EQ(sharded.sizes, baseline.sizes) << "shards=" << shards;
    EXPECT_EQ(sharded.total, baseline.total) << "shards=" << shards;
    EXPECT_EQ(sharded.lookups, baseline.lookups) << "shards=" << shards;
    EXPECT_EQ(sharded.enumerated, baseline.enumerated)
        << "shards=" << shards;
  }
}

TEST_F(DMapServiceTest, RefreshReadSnapshotsFreshensStoreAndResolver) {
  DMapOptions options = Options();
  DMapService service(env_.graph, env_.table, options);
  (void)service.Insert(Guid::FromSequence(1), NetworkAddress{10, 1});
  EXPECT_FALSE(service.store().snapshots_fresh());
  service.RefreshReadSnapshots();
  EXPECT_TRUE(service.store().snapshots_fresh());
  EXPECT_TRUE(service.resolver().snapshot_fresh());
  // Reads after the publish still find the stored entry.
  EXPECT_NE(service.StoreLookup(service.Lookup(Guid::FromSequence(1), 200)
                                    .serving_as,
                                Guid::FromSequence(1)),
            nullptr);
}

std::uint64_t CounterIn(const MetricsSnapshot& snapshot,
                        const std::string& name) {
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t HistogramCountIn(const MetricsSnapshot& snapshot,
                               const std::string& name) {
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

TEST_F(DMapServiceTest, ResolutionReuseIsCountedAndReplaysAlgo1Metrics) {
  DMapService service(env_.graph, env_.table, Options(4));
  MetricsRegistry registry;
  service.SetMetrics(&registry);
  const AsId n = AsId(env_.graph.num_nodes());
  constexpr std::uint64_t kGuids = 40;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    (void)service.Insert(Guid::FromSequence(i), NetworkAddress{AsId(i % n), 1});
  }
  const auto reused = [&] {
    return CounterIn(registry.Snapshot(), "dmap.resolutions_reused");
  };
  // A first write has nothing stored to reuse.
  EXPECT_EQ(reused(), 0u);

  // The expectations come from a resolver without metrics, so computing
  // them records nothing.
  const HoleResolver reference(service.hash_family(), env_.table,
                               service.options().max_hashes);
  const MetricsSnapshot before = registry.Snapshot();
  std::uint64_t ops = 0;
  std::uint64_t hash_evaluations = 0;
  std::uint64_t deputies = 0;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    const Guid g = Guid::FromSequence(i);
    const AsId querier = AsId((i * 7 + 3) % n);
    (void)service.Lookup(g, querier);
    (void)service.Plan(g, querier);
    (void)service.Update(g, NetworkAddress{AsId((i + 1) % n), 2});
    ops += 3;
    for (const HostResolution& r : reference.ResolveAll(g)) {
      hash_evaluations += 3 * std::uint64_t(r.hash_count);
      deputies += r.used_nearest ? 3 : 0;
    }
  }
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(CounterIn(after, "dmap.resolutions_reused"), ops);
  EXPECT_EQ(CounterIn(after, "algo1.hash_evaluations") -
                CounterIn(before, "algo1.hash_evaluations"),
            hash_evaluations);
  EXPECT_EQ(HistogramCountIn(after, "algo1.rehash_depth") -
                HistogramCountIn(before, "algo1.rehash_depth"),
            ops * 4);
  EXPECT_EQ(CounterIn(after, "algo1.deputy_fallbacks") -
                CounterIn(before, "algo1.deputy_fallbacks"),
            deputies);

  // One announcement moves the table's epoch: no stored resolution is
  // reused until its GUID is written again.
  bool announced = false;
  for (std::uint32_t i = 0; !announced; ++i) {
    announced = env_.table.Announce(
        Cidr(Ipv4Address(0xcb007100u + (i << 8)), 24), AsId(i % n));
  }
  const Guid g = Guid::FromSequence(0);
  const Guid other = Guid::FromSequence(1);
  const std::uint64_t at_announce = reused();
  (void)service.Lookup(g, 5);
  (void)service.Plan(g, 5);
  (void)service.ReplicaResolutions(g);
  (void)service.Lookup(other, 5);
  EXPECT_EQ(reused(), at_announce);
  (void)service.Update(g, NetworkAddress{7, 3});  // re-resolves, stores
  EXPECT_EQ(reused(), at_announce);
  (void)service.Lookup(g, 5);
  EXPECT_EQ(reused(), at_announce + 1);
  (void)service.Lookup(other, 5);  // not written since the announcement
  EXPECT_EQ(reused(), at_announce + 1);
}

// Seeded sweep over the resolution memo's validity rule. Each seed draws
// K, M, the local replica and the selection rule on a small topology, then
// interleaves every write, in-place BGP churn on the service's own table,
// lookups and plans. The service reuses the resolutions a GUID was written
// under while the table's epoch is unchanged; LookupWithView and
// HoleResolver::ResolveAll never do, so every lookup and plan must match
// theirs bit for bit, and every write must land on a fresh resolution.
class ResolutionMemoSweepTest : public testing::TestWithParam<int> {};

void ExpectSameLookup(const LookupResult& got, const LookupResult& want,
                      int step) {
  ASSERT_EQ(got.found, want.found) << "step " << step;
  EXPECT_TRUE(got.nas == want.nas) << "step " << step;
  EXPECT_EQ(got.serving_as, want.serving_as) << "step " << step;
  EXPECT_EQ(got.served_locally, want.served_locally) << "step " << step;
  EXPECT_EQ(got.latency_ms, want.latency_ms) << "step " << step;
  EXPECT_EQ(got.attempts, want.attempts) << "step " << step;
  ASSERT_TRUE(got.trace.has_value() && want.trace.has_value());
  const ProbeTrace& a = *got.trace;
  const ProbeTrace& b = *want.trace;
  EXPECT_EQ(a.hash_evaluations, b.hash_evaluations) << "step " << step;
  EXPECT_EQ(a.latency_ms, b.latency_ms) << "step " << step;
  EXPECT_EQ(a.local_won, b.local_won) << "step " << step;
  ASSERT_EQ(a.probes.size(), b.probes.size()) << "step " << step;
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].replica, b.probes[i].replica) << "step " << step;
    EXPECT_EQ(a.probes[i].rtt_ms, b.probes[i].rtt_ms) << "step " << step;
    EXPECT_EQ(a.probes[i].outcome, b.probes[i].outcome) << "step " << step;
  }
}

TEST_P(ResolutionMemoSweepTest, MatchesFreshResolution) {
  const int seed = GetParam();
  Rng rng(0x5eed0000ULL + std::uint64_t(seed));
  SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(120, 1000 + seed));
  const AsId n = AsId(env.graph.num_nodes());
  DMapOptions options;
  options.k = int(rng.NextInRange(1, 5));
  options.max_hashes = int(rng.NextInRange(1, 10));
  options.local_replica = rng.NextBounded(2) == 0;
  options.selection = rng.NextBounded(4) == 0 ? ReplicaSelection::kFewestHops
                                              : ReplicaSelection::kLowestRtt;
  DMapService service(env.graph, env.table, options);
  MetricsRegistry registry;
  service.SetMetrics(&registry);
  ProbeTracer tracer(1, 1);  // traces every lookup
  service.SetTracer(&tracer);

  constexpr std::uint64_t kGuids = 24;
  std::vector<int> attachments(kGuids, 0);  // 0 = not registered
  std::uint32_t locator = 1;
  std::vector<PrefixRecord> withdrawn;
  const auto pick_as = [&] { return AsId(rng.NextBounded(n)); };
  const auto check_write = [&](const Guid& g, const UpdateResult& result,
                               int step) {
    const std::vector<HostResolution> fresh = service.resolver().ResolveAll(g);
    ASSERT_EQ(result.replicas.size(), fresh.size()) << "step " << step;
    int hash_evaluations = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(result.replicas[i], fresh[i].host) << "step " << step;
      EXPECT_NE(service.StoreLookup(fresh[i].host, g), nullptr)
          << "step " << step;
      hash_evaluations += fresh[i].hash_count;
    }
    EXPECT_EQ(result.hash_evaluations, hash_evaluations) << "step " << step;
  };

  for (int step = 0; step < 200; ++step) {
    const std::uint64_t op = rng.NextBounded(100);
    const std::uint64_t index = rng.NextBounded(kGuids);
    const Guid g = Guid::FromSequence(index);
    const bool registered = attachments[index] != 0;
    if (op < 10) {
      check_write(g, service.Insert(g, NetworkAddress{pick_as(), locator++}),
                  step);
      attachments[index] = 1;
    } else if (op < 20) {
      if (!registered) continue;
      check_write(g, service.Update(g, NetworkAddress{pick_as(), locator++}),
                  step);
      attachments[index] = 1;
    } else if (op < 26) {
      const AsId to = pick_as();
      std::vector<std::pair<Guid, NetworkAddress>> moves;
      for (std::uint64_t j = 0; j < kGuids && moves.size() < 4; ++j) {
        const std::uint64_t m = (index + j) % kGuids;
        if (attachments[m] == 0 || rng.NextBounded(2) == 0) continue;
        moves.emplace_back(Guid::FromSequence(m),
                           NetworkAddress{to, locator++});
        attachments[m] = 1;
      }
      const BatchUpdateResult batch = service.BatchUpdate(moves);
      ASSERT_EQ(batch.per_guid.size(), moves.size());
      for (std::size_t j = 0; j < moves.size(); ++j) {
        check_write(moves[j].first, batch.per_guid[j], step);
      }
    } else if (op < 31) {
      if (!registered || attachments[index] == NaSet::kMaxNas) continue;
      const NetworkAddress na{pick_as(), locator++};
      check_write(g, service.AddAttachment(g, na), step);
      ++attachments[index];
    } else if (op < 35) {
      EXPECT_EQ(service.Deregister(g), registered) << "step " << step;
      attachments[index] = 0;
    } else if (op < 40) {
      (void)service.Rehome(g);
      if (!registered) continue;
      for (const HostResolution& r : service.resolver().ResolveAll(g)) {
        EXPECT_NE(service.StoreLookup(r.host, g), nullptr) << "step " << step;
      }
    } else if (op < 45) {
      // In-place BGP churn on the service's own table, aimed at the prefix
      // holding one of g's replicas so that it moves. Each churn makes the
      // next write rebuild the resolver's 64 MB snapshot, hence the rarity.
      const Ipv4Address stored =
          service.resolver()
              .ResolveAll(g)[rng.NextBounded(std::uint64_t(options.k))]
              .stored_address;
      const std::uint64_t kind = rng.NextBounded(3);
      if (kind == 0 && !withdrawn.empty()) {
        (void)env.table.Announce(withdrawn.back().prefix, pick_as());
        withdrawn.pop_back();
      } else if (kind == 1 && env.table.num_prefixes() > 8) {
        const std::optional<PrefixRecord> victim = env.table.Lookup(stored);
        ASSERT_TRUE(victim.has_value());
        ASSERT_TRUE(env.table.Withdraw(victim->prefix));
        withdrawn.push_back(*victim);
      } else {
        (void)env.table.Announce(Cidr(stored, int(rng.NextInRange(16, 28))),
                                 pick_as());
      }
    } else if (op < 72) {
      const AsId querier = pick_as();
      const LookupResult got = service.Lookup(g, querier);
      const LookupResult want = service.LookupWithView(g, querier, env.table);
      ExpectSameLookup(got, want, step);
    } else {
      const AsId querier = pick_as();
      const std::vector<PlannedProbe> got = service.Plan(g, querier);
      const std::vector<PlannedProbe> want =
          PlanProbes(service.resolver().ResolveAll(g), querier,
                     options.selection, service.oracle());
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].host, want[i].host) << "step " << step;
        EXPECT_EQ(got[i].rtt, want[i].rtt) << "step " << step;
        EXPECT_EQ(got[i].stored_address.value(),
                  want[i].stored_address.value())
            << "step " << step;
      }
    }
  }
  // The sweep exercised the reuse path, not only fresh resolutions.
  EXPECT_GT(CounterIn(registry.Snapshot(), "dmap.resolutions_reused"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolutionMemoSweepTest, testing::Range(0, 64));

}  // namespace
}  // namespace dmap
