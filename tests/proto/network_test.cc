#include "proto/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/churn.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/hole_resolver.h"
#include "core/lookup_flow.h"
#include "fault/fault_plan.h"
#include "obs/probe_trace.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class ProtocolNetworkTest : public testing::Test {
 protected:
  ProtocolNetworkTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  ProtocolNetworkOptions Options(int k = 3) {
    ProtocolNetworkOptions o;
    o.k = k;
    return o;
  }

  SimEnvironment env_;
};

TEST_F(ProtocolNetworkTest, InsertThenLookupOverTheWire) {
  ProtocolNetwork net(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(1);

  std::optional<UpdateResult> insert_result;
  net.InsertAsync(g, NetworkAddress{10, 1},
                  [&](const UpdateResult& r) { insert_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(insert_result.has_value());
  EXPECT_EQ(insert_result->replicas.size(), 3u);
  EXPECT_GT(insert_result->latency_ms, 0.0);

  std::optional<LookupResult> lookup_result;
  net.LookupAsync(g, 200,
                  [&](const LookupResult& r) { lookup_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(lookup_result.has_value());
  EXPECT_TRUE(lookup_result->found);
  EXPECT_TRUE(lookup_result->nas.AttachedTo(10));
  EXPECT_GT(net.messages_sent(), 0u);
  EXPECT_GT(net.bytes_sent(), 0u);
}

TEST_F(ProtocolNetworkTest, AgreesWithClosedFormService) {
  // The wire-protocol execution must produce the same latencies as the
  // closed-form DMapService for registered GUIDs with no failures/churn.
  DMapOptions service_options;
  service_options.k = 3;
  service_options.measure_update_latency = true;
  DMapService service(env_.graph, env_.table, service_options);
  ProtocolNetwork net(env_.graph, env_.table, Options());

  WorkloadParams params;
  params.num_guids = 100;
  params.seed = 5;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    const UpdateResult expected = service.Insert(op.guid, op.na);
    std::optional<UpdateResult> got;
    net.InsertAsync(op.guid, op.na,
                    [&](const UpdateResult& r) { got = r; });
    net.simulator().Run();
    ASSERT_TRUE(got.has_value());
    // The protocol path sums each direction's one-way latency from its own
    // (float) Dijkstra run; forward/backward accumulation order differs by
    // ~1e-6 ms, so equality is asserted to that precision.
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-4);
    EXPECT_EQ(got->replicas, expected.replicas);
  }

  for (const LookupOp& op : workload.Lookups(300)) {
    const LookupResult expected = service.Lookup(op.guid, op.source);
    std::optional<LookupResult> got;
    net.LookupAsync(op.guid, op.source,
                    [&](const LookupResult& r) { got = r; });
    net.simulator().Run();
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(got->found);
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-4);
    EXPECT_EQ(got->served_locally, expected.served_locally);
    EXPECT_EQ(got->nas, expected.nas);
    EXPECT_EQ(got->serving_as, expected.serving_as);
    EXPECT_FALSE(got->served_from_cache);
    EXPECT_EQ(got->admission, AdmissionOutcome::kServed);
    EXPECT_EQ(got->queue_delay_ms, 0.0);
    if (!expected.served_locally) {
      EXPECT_EQ(got->attempts, expected.attempts);
    }
  }
}

TEST_F(ProtocolNetworkTest, FailedReplicaFallsThroughAfterTimeout) {
  ProtocolNetworkOptions options = Options();
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(2);

  std::optional<UpdateResult> insert_result;
  net.InsertAsync(g, NetworkAddress{10, 1},
                  [&](const UpdateResult& r) { insert_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(insert_result.has_value());

  // Kill the replica the querier would pick first.
  // (All replicas are distinct ASs with overwhelming probability.)
  const AsId querier = 123;
  // Determine the best replica by asking a reference service.
  DMapOptions ref_options;
  ref_options.k = 3;
  ref_options.local_replica = false;
  DMapService reference(env_.graph, env_.table, ref_options);
  (void)reference.Insert(g, NetworkAddress{10, 1});
  const auto plan = reference.Plan(g, querier);
  net.FailAs(plan[0].host);

  std::optional<LookupResult> lookup_result;
  net.LookupAsync(g, querier,
                  [&](const LookupResult& r) { lookup_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(lookup_result.has_value());
  if (plan[1].host != plan[0].host) {
    EXPECT_TRUE(lookup_result->found);
    EXPECT_EQ(lookup_result->attempts, 2);
    // Cost = adaptive timeout for the dead replica + second replica RTT.
    const double expected_timeout =
        std::max(options.failure_timeout_ms, 1.5 * plan[0].rtt);
    EXPECT_NEAR(lookup_result->latency_ms,
                expected_timeout + plan[1].rtt, 1e-4);
  }
  EXPECT_GT(net.messages_dropped(), 0u);

  // Recovery: the replica answers again.
  net.RecoverAs(plan[0].host);
  std::optional<LookupResult> after;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { after = r; });
  net.simulator().Run();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->attempts, 1);
}

TEST_F(ProtocolNetworkTest, AllReplicasDownMeansNotFound) {
  ProtocolNetworkOptions options = Options();
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(3);
  std::optional<UpdateResult> insert_result;
  net.InsertAsync(g, NetworkAddress{10, 1},
                  [&](const UpdateResult& r) { insert_result = r; });
  net.simulator().Run();
  for (const AsId host : insert_result->replicas) net.FailAs(host);

  std::optional<LookupResult> result;
  net.LookupAsync(g, 77, [&](const LookupResult& r) { result = r; });
  net.simulator().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->found);
  EXPECT_EQ(result->attempts, 3);
}

TEST_F(ProtocolNetworkTest, LocalReplicaAnswersWhenGlobalsAreDown) {
  ProtocolNetwork net(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(4);
  std::optional<UpdateResult> insert_result;
  net.InsertAsync(g, NetworkAddress{42, 1},
                  [&](const UpdateResult& r) { insert_result = r; });
  net.simulator().Run();
  for (const AsId host : insert_result->replicas) {
    if (host != 42) net.FailAs(host);
  }

  std::optional<LookupResult> result;
  net.LookupAsync(g, 42, [&](const LookupResult& r) { result = r; });
  net.simulator().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_TRUE(result->served_locally);
  EXPECT_NEAR(result->latency_ms, 2.0 * env_.graph.IntraLatencyMs(42),
              1e-9);
}

TEST_F(ProtocolNetworkTest, MovedHostLeavesNoStaleLocalCopy) {
  // A host leaves AS `from` for AS `to`, once by a re-insert and once by a
  // batched handoff. As in the closed form, the superseded local copy at
  // `from` is deleted (`from` hosts no replica here), so a lookup from
  // `from` cannot win the local race with the old NA set.
  const ProtocolNetworkOptions options = Options();
  const GuidHashFamily hashes(options.k, options.hash_seed);
  const HoleResolver resolver(hashes, env_.table, options.max_hashes);
  const Guid moved = Guid::FromSequence(5);
  const Guid batched = Guid::FromSequence(6);
  const auto hosts_replica = [&](AsId as) {
    for (const Guid& g : {moved, batched}) {
      for (const HostResolution& r : resolver.ResolveAll(g)) {
        if (r.host == as) return true;
      }
    }
    return false;
  };
  AsId from = 10;
  while (hosts_replica(from)) ++from;
  const AsId to = from + 1;

  ProtocolNetwork net(env_.graph, env_.table, options);
  for (const Guid& g : {moved, batched}) {
    net.InsertAsync(g, NetworkAddress{from, 1}, [](const UpdateResult&) {});
  }
  net.simulator().Run();
  net.InsertAsync(moved, NetworkAddress{to, 2}, [](const UpdateResult&) {});
  net.BatchUpdateAsync({{batched, NetworkAddress{to, 2}}},
                       [](const BatchUpdateResult&) {});
  net.simulator().Run();

  for (const Guid& g : {moved, batched}) {
    EXPECT_EQ(net.node(from).store().Lookup(g), nullptr);
    std::optional<LookupResult> result;
    net.LookupAsync(g, from, [&](const LookupResult& r) { result = r; });
    net.simulator().Run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->found);
    EXPECT_FALSE(result->served_locally);
    EXPECT_TRUE(result->nas.AttachedTo(to));
    EXPECT_FALSE(result->nas.AttachedTo(from));
  }
}

TEST_F(ProtocolNetworkTest, MigrationRepairsChurnOrphansOnFirstQuery) {
  // End-to-end Section III-D-1: place mappings, churn the table so some
  // lookups hash to newly-announcing ASs, and verify the migration
  // protocol recovers the orphaned mapping transparently.
  ProtocolNetworkOptions options = Options(5);
  options.local_replica = false;
  // The shared table is mutated after placement, so nodes see the new
  // announcements — exactly the scenario the migration handles.
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 200;
  params.seed = 9;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    bool done = false;
    net.InsertAsync(op.guid, op.na, [&](const UpdateResult&) { done = true; });
    net.simulator().Run();
    ASSERT_TRUE(done);
  }

  Rng rng(13);
  ChurnParams churn;
  churn.announce_fraction = 0.05;  // new prefixes only: orphan scenario
  churn.num_ases = env_.graph.num_nodes();
  ApplyChurn(env_.table, SampleChurn(env_.table, churn, rng));

  int found = 0, total = 0;
  for (const LookupOp& op : workload.Lookups(400)) {
    std::optional<LookupResult> result;
    net.LookupAsync(op.guid, op.source,
                    [&](const LookupResult& r) { result = r; });
    net.simulator().Run();
    ASSERT_TRUE(result.has_value());
    ++total;
    if (result->found) ++found;
  }
  // Every registered GUID must still resolve (replicas whose placement is
  // unaffected answer directly; affected ones are migrated on demand).
  EXPECT_EQ(found, total);
}

TEST_F(ProtocolNetworkTest, WithdrawalHandsMappingsToDeputies) {
  // Section III-D-1 withdrawal side: pick an announced prefix that hosts
  // mappings, run the proactive handoff, and verify every affected GUID
  // still resolves first-try with no migration hunting.
  ProtocolNetworkOptions options = Options(3);
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 300;
  params.seed = 21;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    bool done = false;
    net.InsertAsync(op.guid, op.na, [&](const UpdateResult&) { done = true; });
    net.simulator().Run();
    ASSERT_TRUE(done);
  }

  // Find a prefix that actually stores mappings at its owner.
  Cidr victim;
  AsId owner = kInvalidAs;
  for (const PrefixRecord& record : env_.table.AllPrefixes()) {
    int count = 0;
    net.node(record.owner)
        .store()
        .ForEachStoredIn(record.prefix,
                         [&count](const Guid&, const MappingEntry&) {
                           ++count;
                         });
    if (count > 0) {
      victim = record.prefix;
      owner = record.owner;
      break;
    }
  }
  ASSERT_NE(owner, kInvalidAs) << "no populated prefix found";

  const std::size_t store_before = net.node(owner).store().size();
  int migrated = -1;
  net.WithdrawPrefixAsync(victim, owner, env_.table,
                          [&](int count) { migrated = count; });
  net.simulator().Run();
  ASSERT_GT(migrated, 0);
  EXPECT_FALSE(env_.table.Lookup(victim.First()).has_value());
  EXPECT_EQ(net.node(owner).store().size(),
            store_before - std::size_t(migrated));

  // All GUIDs still resolve, and without migration hunting (the proactive
  // handoff already placed them where the new chains look).
  std::uint64_t hunts_before = 0;
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    hunts_before += net.node(as).stats().migrations_requested;
  }
  for (std::uint64_t i = 0; i < params.num_guids; i += 5) {
    std::optional<LookupResult> result;
    net.LookupAsync(workload.GuidAt(i), 123,
                    [&](const LookupResult& r) { result = r; });
    net.simulator().Run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->found) << "guid " << i;
    EXPECT_EQ(result->attempts, 1) << "guid " << i;
  }
  std::uint64_t hunts_after = 0;
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    hunts_after += net.node(as).stats().migrations_requested;
  }
  EXPECT_EQ(hunts_after, hunts_before);
}

TEST_F(ProtocolNetworkTest, WithdrawalOfUnknownPrefixThrows) {
  ProtocolNetwork net(env_.graph, env_.table, Options());
  EXPECT_THROW(net.WithdrawPrefixAsync(
                   Cidr(Ipv4Address::FromOctets(10, 0, 0, 0), 8), 0,
                   env_.table, [](int) {}),
               std::invalid_argument);
}

// A withdrawal whose orphans need no handoff message (the owner held a
// stray copy under the prefix, off the GUID's chain) completes at once,
// counting the orphan and dropping the copy, without throwing.
TEST_F(ProtocolNetworkTest, WithdrawalWithNothingToSendStillCompletes) {
  ProtocolNetworkOptions options = Options(3);
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const PrefixRecord record = env_.table.AllPrefixes().front();
  const GuidHashFamily hashes(options.k, options.hash_seed);
  const HoleResolver resolver(hashes, env_.table, options.max_hashes);
  const auto chain_avoids_owner = [&](const Guid& guid) {
    for (const HostResolution& r : resolver.ResolveAll(guid)) {
      if (r.host == record.owner) return false;
    }
    return true;
  };
  std::uint64_t seq = 1;
  while (!chain_avoids_owner(Guid::FromSequence(seq))) ++seq;
  const Guid g = Guid::FromSequence(seq);

  MappingEntry entry;
  entry.nas = NaSet(NetworkAddress{record.owner, 1});
  entry.version = 1;
  entry.writer = record.owner;
  ASSERT_TRUE(net.node(record.owner)
                  .store()
                  .Upsert(g, entry, record.prefix.First()));

  int migrated = -1;
  EXPECT_NO_THROW(net.WithdrawPrefixAsync(
      record.prefix, record.owner, env_.table,
      [&](int count) { migrated = count; }));
  net.simulator().Run();
  EXPECT_EQ(migrated, 1);
  EXPECT_EQ(net.node(record.owner).store().Lookup(g), nullptr);
}

// The Section III-D no-orphan invariant of the withdrawal handoff: once a
// prefix is withdrawn, every host of every registered GUID's chain holds
// the entry. Owners announcing several prefixes withdraw one each, in
// turn, so some new chains land back on their owner through another of its
// prefixes, and some GUIDs hold two replica slots at the owner, only one
// of them under the withdrawn prefix.
TEST_F(ProtocolNetworkTest, WithdrawalLeavesEveryNewChainHostHoldingTheEntry) {
  ProtocolNetworkOptions options = Options(3);
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  WorkloadParams params;
  params.num_guids = 20000;
  params.seed = 29;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
  }
  net.simulator().Run();

  std::unordered_map<AsId, int> prefixes_of;
  for (const PrefixRecord& record : env_.table.AllPrefixes()) {
    ++prefixes_of[record.owner];
  }
  std::vector<PrefixRecord> victims;
  std::unordered_set<AsId> owners;
  for (const PrefixRecord& record : env_.table.AllPrefixes()) {
    if (victims.size() == 8) break;
    if (prefixes_of[record.owner] < 2 || !owners.insert(record.owner).second) {
      continue;
    }
    victims.push_back(record);
  }
  ASSERT_EQ(victims.size(), 8u);

  const GuidHashFamily hashes(options.k, options.hash_seed);
  const HoleResolver resolver(hashes, env_.table, options.max_hashes);
  int landed_on_owner = 0;  // orphans' new replica slots at their owner
  for (const PrefixRecord& victim : victims) {
    // The orphans: GUIDs the owner holds under the prefix or for a replica
    // placed inside it.
    std::unordered_set<Guid, GuidHash> stored_in;
    net.node(victim.owner)
        .store()
        .ForEachStoredIn(victim.prefix,
                         [&](const Guid& guid, const MappingEntry&) {
                           stored_in.insert(guid);
                         });
    std::vector<Guid> orphans;
    for (std::uint64_t i = 0; i < params.num_guids; ++i) {
      const Guid guid = workload.GuidAt(i);
      if (net.node(victim.owner).store().Lookup(guid) == nullptr) continue;
      bool orphaned = stored_in.contains(guid);
      for (const HostResolution& r : resolver.ResolveAll(guid)) {
        orphaned |= r.host == victim.owner &&
                    victim.prefix.Contains(r.stored_address);
      }
      if (orphaned) orphans.push_back(guid);
    }
    int migrated = -1;
    net.WithdrawPrefixAsync(victim.prefix, victim.owner, env_.table,
                            [&](int count) { migrated = count; });
    net.simulator().Run();
    EXPECT_EQ(migrated, int(orphans.size()));

    for (const Guid& guid : orphans) {
      for (const HostResolution& r : resolver.ResolveAll(guid)) {
        if (r.host == victim.owner) ++landed_on_owner;
      }
    }
    for (std::uint64_t i = 0; i < params.num_guids; ++i) {
      const Guid guid = workload.GuidAt(i);
      const std::vector<HostResolution> hosts = resolver.ResolveAll(guid);
      for (std::size_t replica = 0; replica < hosts.size(); ++replica) {
        const AsId host = hosts[replica].host;
        ASSERT_NE(net.node(host).store().Lookup(guid), nullptr)
            << "withdrawal by " << victim.owner << ": guid " << i
            << " replica " << replica << " at " << host;
      }
    }
  }
  // The case the owner's in-place rewrite guards was exercised.
  EXPECT_GT(landed_on_owner, 0);
}

TEST_F(ProtocolNetworkTest, TrafficAccountingIsConsistent) {
  ProtocolNetwork net(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(5);
  bool done = false;
  net.InsertAsync(g, NetworkAddress{10, 1},
                  [&](const UpdateResult&) { done = true; });
  net.simulator().Run();
  ASSERT_TRUE(done);
  // K inserts + K acks (plus nothing else — no maintenance traffic, the
  // paper's key overhead claim versus DHTs).
  EXPECT_EQ(net.messages_sent(), 6u);
  // Each message is at least header + guid.
  EXPECT_GE(net.bytes_sent(), net.messages_sent() * 40);
}

// The wire lookup plans its probes from point queries. With hub labels
// attached they are label merges; on the LRU backend they index cached
// Dijkstra vectors. Both must give bit-identical runs, fault-free and
// under drops, jitter and retransmission, and the labelled network must
// never run Dijkstra.
TEST_F(ProtocolNetworkTest, HubLabelsAndLruBackendsRunIdentically) {
  const HubLabels* labels = EnsureHubLabels(env_, /*threads=*/1);

  struct Run {
    std::vector<LookupResult> lookups;
    std::vector<ProbeTrace> traces;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t retransmissions = 0;
  };
  const auto run = [&](bool hub, bool faults) {
    ProtocolNetworkOptions options = Options();
    if (faults) options.probe_retries = 2;
    ProtocolNetwork net(env_.graph, env_.table, options);
    if (hub) net.oracle().SetHubLabels(labels);
    ProbeTracer tracer;
    net.SetTracer(&tracer);
    if (faults) {
      FaultPlan plan;
      plan.drop_probability = 0.2;
      plan.jitter_ms = 20.0;
      net.ApplyFaultPlan(plan, /*seed=*/9);
    }

    WorkloadParams params;
    params.num_guids = 60;
    params.seed = 21;
    WorkloadGenerator workload(env_.graph, params);
    for (const InsertOp& op : workload.Inserts()) {
      net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
    }
    net.simulator().Run();

    Run out;
    std::size_t i = 0;
    for (const LookupOp& op : workload.Lookups(200)) {
      net.simulator().Schedule(
          SimTime::Millis(double(i++) * 3.0),
          [&net, &out, guid = op.guid, source = op.source] {
            net.LookupAsync(guid, source, [&out](const LookupResult& r) {
              out.lookups.push_back(r);
            });
          });
    }
    net.simulator().Run();
    out.traces = tracer.Drain();
    out.messages = net.messages_sent();
    out.bytes = net.bytes_sent();
    out.dijkstra_runs = net.oracle().dijkstra_runs();
    out.retransmissions = net.retransmissions();
    return out;
  };

  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "with faults" : "fault-free");
    const Run hub = run(/*hub=*/true, faults);
    const Run lru = run(/*hub=*/false, faults);
    EXPECT_EQ(hub.dijkstra_runs, 0u);
    EXPECT_GT(lru.dijkstra_runs, 0u);
    EXPECT_EQ(hub.messages, lru.messages);
    EXPECT_EQ(hub.bytes, lru.bytes);
    EXPECT_EQ(hub.retransmissions, lru.retransmissions);
    if (faults) {
      EXPECT_GT(hub.retransmissions, 0u);
    }

    ASSERT_EQ(hub.lookups.size(), 200u);
    ASSERT_EQ(hub.lookups.size(), lru.lookups.size());
    for (std::size_t i = 0; i < hub.lookups.size(); ++i) {
      const LookupResult& a = hub.lookups[i];
      const LookupResult& b = lru.lookups[i];
      EXPECT_EQ(a.latency_ms, b.latency_ms) << "lookup " << i;
      EXPECT_EQ(a.found, b.found) << "lookup " << i;
      EXPECT_EQ(a.nas, b.nas) << "lookup " << i;
      EXPECT_EQ(a.serving_as, b.serving_as) << "lookup " << i;
      EXPECT_EQ(a.served_locally, b.served_locally) << "lookup " << i;
      EXPECT_EQ(a.attempts, b.attempts) << "lookup " << i;
    }

    ASSERT_EQ(hub.traces.size(), 200u);
    ASSERT_EQ(hub.traces.size(), lru.traces.size());
    for (std::size_t i = 0; i < hub.traces.size(); ++i) {
      const ProbeTrace& a = hub.traces[i];
      const ProbeTrace& b = lru.traces[i];
      EXPECT_EQ(a.guid_fp, b.guid_fp) << "trace " << i;
      EXPECT_EQ(a.latency_ms, b.latency_ms) << "trace " << i;
      ASSERT_EQ(a.probes.size(), b.probes.size()) << "trace " << i;
      for (std::size_t p = 0; p < a.probes.size(); ++p) {
        EXPECT_EQ(a.probes[p].replica, b.probes[p].replica);
        EXPECT_EQ(a.probes[p].rtt_ms, b.probes[p].rtt_ms);
        EXPECT_EQ(a.probes[p].outcome, b.probes[p].outcome);
      }
    }
  }
}

TEST_F(ProtocolNetworkTest, InvalidArgumentsThrow) {
  ProtocolNetwork net(env_.graph, env_.table, Options());
  EXPECT_THROW(net.InsertAsync(Guid::FromSequence(6),
                               NetworkAddress{env_.graph.num_nodes(), 1},
                               [](const UpdateResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(net.LookupAsync(Guid::FromSequence(6),
                               env_.graph.num_nodes(),
                               [](const LookupResult&) {}),
               std::invalid_argument);
  // An out-of-range owner is rejected before the prefix is withdrawn.
  const PrefixRecord record = env_.table.AllPrefixes().front();
  EXPECT_THROW(net.WithdrawPrefixAsync(record.prefix,
                                       env_.graph.num_nodes() + 5,
                                       env_.table, [](int) {}),
               std::invalid_argument);
  EXPECT_TRUE(env_.table.Lookup(record.prefix.First()).has_value());
}

// Seeded sweep over the wire's resolve-once rule. Each seed draws K, M,
// the local replica and R in {1, K} on a small topology, then interleaves
// inserts, batched handoffs, in-place BGP churn on the shared table,
// WithdrawPrefixAsync and lookups, running each to completion. The network
// reuses a client-written GUID's resolutions while the table's epoch is
// unchanged; a reference resolver over the same table never does, so every
// write must land on its fresh resolutions and every lookup must probe its
// fresh plan: in plan order for R = 1, all K replicas for R = K.
class WireResolutionMemoSweepTest : public testing::TestWithParam<int> {};

TEST_P(WireResolutionMemoSweepTest, MatchesFreshResolution) {
  const int seed = GetParam();
  Rng rng(0x3e3e0000ULL + std::uint64_t(seed));
  SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(120, 3000 + seed));
  const AsId n = AsId(env.graph.num_nodes());
  ProtocolNetworkOptions options;
  options.k = int(rng.NextInRange(1, 5));
  options.max_hashes = int(rng.NextInRange(1, 10));
  options.local_replica = rng.NextBounded(2) == 0;
  options.read_quorum = rng.NextBounded(2) == 0 ? 1 : options.k;
  ProtocolNetwork net(env.graph, env.table, options);
  ProbeTracer tracer(1, 1);  // traces every lookup
  net.SetTracer(&tracer);
  const GuidHashFamily hashes(options.k, options.hash_seed);
  const HoleResolver reference(hashes, env.table, options.max_hashes);

  constexpr std::uint64_t kGuids = 24;
  std::vector<std::uint64_t> versions(kGuids, 0);  // 0 = never written
  std::uint32_t locator = 1;
  std::vector<PrefixRecord> withdrawn;
  const auto pick_as = [&] { return AsId(rng.NextBounded(n)); };
  // Every fresh replica host holds `g` at `version`.
  const auto expect_stored = [&](const Guid& g, std::uint64_t version,
                                 int step) {
    for (const HostResolution& r : reference.ResolveAll(g)) {
      const MappingEntry* entry = net.node(r.host).store().Lookup(g);
      ASSERT_NE(entry, nullptr) << "step " << step;
      EXPECT_EQ(entry->version, version) << "step " << step;
    }
  };

  int lookups = 0;
  for (int step = 0; step < 160; ++step) {
    const std::uint64_t op = rng.NextBounded(100);
    const std::uint64_t index = rng.NextBounded(kGuids);
    const Guid g = Guid::FromSequence(index);
    if (op < 15) {
      std::optional<UpdateResult> result;
      net.InsertAsync(g, NetworkAddress{pick_as(), locator++},
                      [&](const UpdateResult& r) { result = r; });
      net.simulator().Run();
      ASSERT_TRUE(result.has_value()) << "step " << step;
      ++versions[index];
      const std::vector<HostResolution> fresh = reference.ResolveAll(g);
      ASSERT_EQ(result->replicas.size(), fresh.size()) << "step " << step;
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(result->replicas[i], fresh[i].host) << "step " << step;
      }
      expect_stored(g, versions[index], step);
    } else if (op < 25) {
      const AsId to = pick_as();
      std::vector<std::pair<Guid, NetworkAddress>> moves;
      std::vector<std::uint64_t> moved;
      for (std::uint64_t j = 0; j < kGuids && moves.size() < 4; ++j) {
        const std::uint64_t m = (index + j) % kGuids;
        if (versions[m] == 0 || rng.NextBounded(2) == 0) continue;
        moves.emplace_back(Guid::FromSequence(m),
                           NetworkAddress{to, locator++});
        moved.push_back(m);
      }
      bool done = false;
      net.BatchUpdateAsync(moves, [&](const BatchUpdateResult&) {
        done = true;
      });
      net.simulator().Run();
      ASSERT_TRUE(done) << "step " << step;
      for (const std::uint64_t m : moved) {
        expect_stored(Guid::FromSequence(m), ++versions[m], step);
      }
    } else if (op < 32) {
      // In-place BGP churn on the shared table, aimed at the prefix holding
      // one of g's replicas so that it moves.
      const Ipv4Address stored =
          reference.ResolveAll(g)[rng.NextBounded(std::uint64_t(options.k))]
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
    } else if (op < 37) {
      // The Section III-D-1 withdrawal, end to end, of the prefix holding
      // one of g's replicas.
      if (env.table.num_prefixes() <= 8) continue;
      const Ipv4Address stored =
          reference.ResolveAll(g)[rng.NextBounded(std::uint64_t(options.k))]
              .stored_address;
      const std::optional<PrefixRecord> victim = env.table.Lookup(stored);
      ASSERT_TRUE(victim.has_value());
      bool done = false;
      net.WithdrawPrefixAsync(victim->prefix, victim->owner, env.table,
                              [&](int) { done = true; });
      net.simulator().Run();
      ASSERT_TRUE(done) << "step " << step;
      withdrawn.push_back(*victim);
    } else {
      const AsId querier = pick_as();
      bool done = false;
      net.LookupAsync(g, querier, [&](const LookupResult&) { done = true; });
      net.simulator().Run();
      ASSERT_TRUE(done) << "step " << step;
      ++lookups;
      const std::vector<PlannedProbe> want =
          PlanProbes(reference.ResolveAll(g), querier,
                     ReplicaSelection::kLowestRtt, net.oracle());
      const std::vector<ProbeTrace> traces = tracer.Drain();
      ASSERT_EQ(traces.size(), 1u) << "step " << step;
      const std::vector<ProbeEvent>& probes = traces.front().probes;
      if (options.read_quorum == 1) {
        // The sequential walk: a prefix of the plan, in order. A timeout
        // is charged its wait, an answer its round trip.
        ASSERT_LE(probes.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < probes.size(); ++i) {
          EXPECT_EQ(probes[i].replica, want[i].host) << "step " << step;
          if (probes[i].outcome != ProbeOutcome::kTimeout) {
            EXPECT_EQ(probes[i].rtt_ms, want[i].rtt) << "step " << step;
          }
        }
      } else {
        // K concurrent streams: every replica answers or times out (a late
        // answer after a timeout is traced too).
        std::vector<AsId> got_hosts, want_hosts;
        for (const ProbeEvent& p : probes) got_hosts.push_back(p.replica);
        for (const PlannedProbe& p : want) want_hosts.push_back(p.host);
        for (std::vector<AsId>* hosts : {&got_hosts, &want_hosts}) {
          std::sort(hosts->begin(), hosts->end());
          hosts->erase(std::unique(hosts->begin(), hosts->end()),
                       hosts->end());
        }
        EXPECT_EQ(got_hosts, want_hosts) << "step " << step;
      }
    }
  }
  EXPECT_GT(lookups, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireResolutionMemoSweepTest,
                         testing::Range(0, 64));

}  // namespace
}  // namespace dmap
