// Fault-model behaviour of the wire protocol: delivery-time failure
// semantics, bounded retransmission with backoff, late-reply resolution,
// the availability invariant, and lookup-triggered re-replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/churn.h"
#include "common/rng.h"
#include "core/dmap_service.h"
#include "fault/fault_plan.h"
#include "fault/retry_policy.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "sim/event_driven.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class NetworkFaultTest : public testing::Test {
 protected:
  NetworkFaultTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  ProtocolNetworkOptions Options(int k = 3) {
    ProtocolNetworkOptions o;
    o.k = k;
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

  // Finds a GUID for which wiping the first-probe replica leads to a real
  // "missing" reply and a client-side repair. (A wiped chain owner first
  // hunts its deputies — Section III-D-1 — and when a deputy happens to
  // hold the entry the migration itself refills the store; those GUIDs
  // exercise a different path than the one these tests are about.)
  std::uint64_t FindRepairableSeq(const ProtocolNetworkOptions& options,
                                  AsId querier, NetworkAddress na) {
    for (std::uint64_t seq = 100; seq < 200; ++seq) {
      const Guid g = Guid::FromSequence(seq);
      ProtocolNetwork net(env_.graph, env_.table, options);
      bool inserted = false;
      net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
      net.simulator().Run();
      if (!inserted) continue;
      const auto plan = ReferencePlan(options, g, na, querier);
      if (plan[0].host == plan[1].host) continue;
      net.node(plan[0].host).store().Clear();
      std::optional<LookupResult> result;
      net.LookupAsync(g, querier,
                      [&](const LookupResult& r) { result = r; });
      net.simulator().Run();
      if (result.has_value() && result->found && result->attempts == 2 &&
          net.repairs_sent() == 1 &&
          net.node(plan[0].host).store().Lookup(g) != nullptr) {
        return seq;
      }
    }
    return 0;  // caller ASSERTs
  }

  std::uint64_t TotalMigrationHunts(ProtocolNetwork& net) {
    std::uint64_t hunts = 0;
    for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
      hunts += net.node(as).stats().migrations_requested;
    }
    return hunts;
  }

  SimEnvironment env_;
};

// Satellite regression: failure semantics are decided at *delivery* time.
// A failure landing while the probe is in flight swallows it even though
// the destination was alive at send time.
TEST_F(NetworkFaultTest, FailureLandingMidFlightDropsTheRequest) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(1);
  const NetworkAddress na{10, 1};
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const AsId querier = 123;
  const auto plan = ReferencePlan(options, g, na, querier);
  ASSERT_NE(plan[0].host, plan[1].host);
  const double one_way = net.oracle().OneWayMs(querier, plan[0].host);

  const std::uint64_t dropped_before = net.messages_dropped();
  std::optional<LookupResult> result;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  // The destination dies after the probe went out but before it arrives.
  net.simulator().Schedule(SimTime::Millis(0.5 * one_way),
                           [&net, as = plan[0].host] { net.FailAs(as); });
  net.simulator().Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 2);
  const double expected_timeout =
      std::max(options.failure_timeout_ms, 1.5 * plan[0].rtt);
  EXPECT_NEAR(result->latency_ms, expected_timeout + plan[1].rtt, 1e-4);
  EXPECT_GT(net.messages_dropped(), dropped_before);
}

// The mirror image: a probe sent while the destination is down is
// *delivered* if the destination recovers before the message lands.
TEST_F(NetworkFaultTest, RecoveryLandingMidFlightDeliversTheRequest) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(2);
  const NetworkAddress na{10, 1};
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const AsId querier = 123;
  const auto plan = ReferencePlan(options, g, na, querier);
  const double one_way = net.oracle().OneWayMs(querier, plan[0].host);

  net.FailAs(plan[0].host);  // down when the probe is sent...
  std::optional<LookupResult> result;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  // ...but back up before it can arrive.
  net.simulator().Schedule(
      SimTime::Millis(0.5 * one_way),
      [&net, as = plan[0].host] { net.RecoverAs(as); });
  net.simulator().Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 1);
  EXPECT_NEAR(result->latency_ms, plan[0].rtt, 1e-4);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

// The availability invariant, first half: with fewer than K replica hosts
// failed, every lookup resolves — with and without a retry budget.
TEST_F(NetworkFaultTest, FewerThanKFailuresNeverLoseLookups) {
  for (const int retries : {0, 2}) {
    ProtocolNetworkOptions options = Options();
    options.probe_retries = retries;
    ProtocolNetwork net(env_.graph, env_.table, options);
    const Guid g = Guid::FromSequence(3);
    std::optional<UpdateResult> inserted;
    net.InsertAsync(g, NetworkAddress{10, 1},
                    [&](const UpdateResult& r) { inserted = r; });
    net.simulator().Run();
    ASSERT_TRUE(inserted.has_value());

    // K - 1 of the replica hosts go down.
    ASSERT_EQ(inserted->replicas.size(), 3u);
    net.FailAs(inserted->replicas[0]);
    net.FailAs(inserted->replicas[1]);

    for (AsId querier = 3; querier < env_.graph.num_nodes(); querier += 31) {
      std::optional<LookupResult> result;
      net.LookupAsync(g, querier,
                      [&](const LookupResult& r) { result = r; });
      net.simulator().Run();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->found)
          << "querier " << querier << " retries " << retries;
    }
  }
}

// The availability invariant, second half: replies that arrive after their
// probe timed out still resolve the lookup. The seed protocol erased the
// pending op at timeout, so a late reply was dropped on the floor and the
// lookup could end "not found" with the answer in flight.
TEST_F(NetworkFaultTest, LateRepliesStillResolveLookups) {
  ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 40;
  params.seed = 11;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
  }
  net.simulator().Run();

  // Heavy jitter, no loss. With jitter < 150ms a probe-0 reply is always
  // in flight (rtt0 + 2 * jitter) strictly before the whole chain can
  // exhaust (>= max(600, 4.5 * rtt0) for K = 3), so every lookup MUST
  // resolve found — many of them via a reply that arrives after its probe
  // already timed out.
  FaultPlan plan;
  plan.jitter_ms = 150.0;
  net.ApplyFaultPlan(plan, /*seed=*/77);

  std::uint64_t found = 0, total = 0;
  std::size_t i = 0;
  for (const LookupOp& op : workload.Lookups(150)) {
    net.simulator().Schedule(
        SimTime::Millis(double(i) * 1.0),
        [&net, &found, &total, guid = op.guid, source = op.source] {
          net.LookupAsync(guid, source, [&](const LookupResult& r) {
            ++total;
            if (r.found) ++found;
          });
        });
    ++i;
  }
  net.simulator().Run();

  EXPECT_EQ(total, 150u);
  EXPECT_EQ(found, total);  // late replies never lose the lookup
  EXPECT_GT(net.late_replies(), 0u);  // and the scenario really occurred
}

// Bounded retransmission recovers dropped probes that single-shot probing
// loses for good.
TEST_F(NetworkFaultTest, RetransmissionRecoversDroppedProbes) {
  const auto run = [&](int retries) {
    ProtocolNetworkOptions options = Options();
    options.probe_retries = retries;
    ProtocolNetwork net(env_.graph, env_.table, options);

    WorkloadParams params;
    params.num_guids = 40;
    params.seed = 12;
    WorkloadGenerator workload(env_.graph, params);
    for (const InsertOp& op : workload.Inserts()) {
      net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
    }
    net.simulator().Run();

    FaultPlan plan;
    plan.drop_probability = 0.3;
    net.ApplyFaultPlan(plan, /*seed=*/5);

    std::uint64_t found = 0, total = 0;
    std::size_t i = 0;
    for (const LookupOp& op : workload.Lookups(150)) {
      net.simulator().Schedule(
          SimTime::Millis(double(i) * 2.0),
          [&net, &found, &total, guid = op.guid, source = op.source] {
            net.LookupAsync(guid, source, [&](const LookupResult& r) {
              ++total;
              if (r.found) ++found;
            });
          });
      ++i;
    }
    net.simulator().Run();
    EXPECT_EQ(total, 150u);
    return std::pair<std::uint64_t, std::uint64_t>{found,
                                                   net.retransmissions()};
  };

  const auto [found_single, retrans_single] = run(0);
  const auto [found_retry, retrans_retry] = run(4);
  EXPECT_EQ(retrans_single, 0u);
  EXPECT_GT(retrans_retry, 0u);
  // At 30% loss the single-shot client loses a visible fraction of its
  // lookups; 4 retransmissions per probe recover effectively all of them.
  EXPECT_LT(found_single, 150u);
  EXPECT_EQ(found_retry, 150u);
  EXPECT_GT(found_retry, found_single);
}

// Satellite: closed-form, event-driven, and wire paths agree on what a
// failed replica costs once a retry budget is configured — they all charge
// the fault/retry_policy.h geometry.
TEST_F(NetworkFaultTest, RetryCostAgreesAcrossAllThreePaths) {
  const Guid g = Guid::FromSequence(4);
  const NetworkAddress na{10, 1};
  const AsId querier = 99;
  const auto probe_order = ReferencePlan(Options(), g, na, querier);
  ASSERT_NE(probe_order[0].host, probe_order[1].host);

  // Pick the base timeout above the adaptive floor (1.5 * rtt) of the dead
  // replica, so all three paths charge the pure policy geometry.
  const double base = std::max(400.0, 1.5 * probe_order[0].rtt + 10.0);

  DMapOptions service_options;
  service_options.k = 3;
  service_options.local_replica = false;
  service_options.failure_timeout_ms = base;
  service_options.probe_retries = 2;
  service_options.retry_backoff = 3.0;
  DMapService service(env_.graph, env_.table, service_options);
  (void)service.Insert(g, na);

  // One FailureView, shared by every path.
  FailureView view;
  view.Fail(probe_order[0].host);
  service.SetFailureView(view);

  const LookupResult expected = service.Lookup(g, querier);
  ASSERT_TRUE(expected.found);
  EXPECT_EQ(expected.attempts, 2);
  EXPECT_NEAR(expected.latency_ms,
              TotalTimeoutCostMs(base, 2, 3.0) + probe_order[1].rtt,
              1e-9);

  // Event-driven path.
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> event_result;
  executor.LookupAsync(g, querier, SimTime::Zero(),
                       [&](const LookupResult& r) { event_result = r; });
  sim.Run();
  ASSERT_TRUE(event_result.has_value());
  EXPECT_NEAR(event_result->latency_ms, expected.latency_ms, 1e-9);
  EXPECT_EQ(event_result->attempts, expected.attempts);

  // Wire path, same view.
  ProtocolNetworkOptions net_options = Options();
  net_options.failure_timeout_ms = base;
  net_options.probe_retries = 2;
  net_options.retry_backoff = 3.0;
  ProtocolNetwork net(env_.graph, env_.table, net_options);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);
  net.SetFailureView(view);

  std::optional<LookupResult> wire_result;
  net.LookupAsync(g, querier,
                  [&](const LookupResult& r) { wire_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(wire_result.has_value());
  EXPECT_TRUE(wire_result->found);
  EXPECT_NEAR(wire_result->latency_ms, expected.latency_ms, 1e-4);
  EXPECT_EQ(wire_result->attempts, expected.attempts);
  EXPECT_EQ(net.retransmissions(), 2u);  // 2 retries on the dead replica
}

// The test above over generated scenarios: each seed draws K, a GUID, its
// attachment AS, a failed set of replica hosts smaller than K, a querier
// outside it, the retry budget and the local replica. With the base
// timeout at or above every plan RTT's 1.5x floor, the closed form, the
// event-driven executor and the wire protocol (R = 1, no fault injector)
// must report the same lookup. Attempts are compared for global answers
// only: the closed form walks the whole global path before racing the
// local replica, while the executors stop probing when the local reply
// lands.
class RetryCostSweepTest : public NetworkFaultTest,
                           public testing::WithParamInterface<int> {};

TEST_P(RetryCostSweepTest, RetryCostAgreesAcrossAllThreePaths) {
  Rng rng(0xa9ee0000ULL + std::uint64_t(GetParam()));
  const AsId num_ases = env_.graph.num_nodes();
  const int k = int(rng.NextInRange(2, 5));
  const int retries = int(rng.NextInRange(0, 2));
  const bool local = rng.NextBernoulli(0.5);
  const Guid g = Guid::FromSequence(rng.NextBounded(1'000'000));
  const NetworkAddress na{AsId(rng.NextBounded(num_ases)), 1};

  DMapOptions service_options;
  service_options.k = k;
  service_options.local_replica = local;
  service_options.probe_retries = retries;
  service_options.retry_backoff = 1.0 + double(rng.NextBounded(3));

  // Failed set: a random proper subset of the distinct replica hosts.
  std::vector<AsId> hosts;
  {
    DMapService reference(env_.graph, env_.table, service_options);
    hosts = reference.Insert(g, na).replicas;
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  for (std::size_t i = hosts.size(); i > 1; --i) {
    std::swap(hosts[i - 1], hosts[rng.NextBounded(i)]);
  }
  const std::vector<AsId> failed(
      hosts.begin(), hosts.begin() + std::ptrdiff_t(rng.NextBounded(
                                         hosts.size())));
  const auto is_failed = [&](AsId as) {
    return std::find(failed.begin(), failed.end(), as) != failed.end();
  };
  AsId querier = local && rng.NextBernoulli(0.3)
                     ? na.as
                     : AsId(rng.NextBounded(num_ases));
  while (is_failed(querier)) querier = AsId(rng.NextBounded(num_ases));

  double max_rtt = 0.0;
  {
    DMapService reference(env_.graph, env_.table, service_options);
    (void)reference.Insert(g, na);
    for (const PlannedProbe& probe : reference.Plan(g, querier)) {
      max_rtt = std::max(max_rtt, probe.rtt);
    }
  }
  service_options.failure_timeout_ms = std::max(200.0, 1.5 * max_rtt);
  SCOPED_TRACE(testing::Message()
               << "k=" << k << " retries=" << retries << " local=" << local
               << " querier=" << querier << " failed=" << failed.size());

  FailureView view;
  for (const AsId as : failed) view.Fail(as);

  DMapService service(env_.graph, env_.table, service_options);
  (void)service.Insert(g, na);
  service.SetFailureView(view);
  const LookupResult expected = service.Lookup(g, querier);
  ASSERT_TRUE(expected.found);

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> event_result;
  executor.LookupAsync(g, querier, SimTime::Zero(),
                       [&](const LookupResult& r) { event_result = r; });
  sim.Run();

  ProtocolNetworkOptions net_options;
  net_options.k = k;
  net_options.local_replica = local;
  net_options.probe_retries = retries;
  net_options.retry_backoff = service_options.retry_backoff;
  net_options.failure_timeout_ms = service_options.failure_timeout_ms;
  ProtocolNetwork net(env_.graph, env_.table, net_options);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);
  net.SetFailureView(view);
  std::optional<LookupResult> wire_result;
  net.LookupAsync(g, querier,
                  [&](const LookupResult& r) { wire_result = r; });
  net.simulator().Run();

  for (const auto& [path, result] :
       {std::pair{"event", event_result}, std::pair{"wire", wire_result}}) {
    SCOPED_TRACE(path);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->found, expected.found);
    EXPECT_EQ(result->nas, expected.nas);
    EXPECT_EQ(result->serving_as, expected.serving_as);
    EXPECT_EQ(result->served_locally, expected.served_locally);
    if (!expected.served_locally) {
      EXPECT_EQ(result->attempts, expected.attempts);
    }
    EXPECT_NEAR(result->latency_ms, expected.latency_ms, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryCostSweepTest, testing::Range(0, 64));

// Writes over generated scenarios: each seed draws K, W from {0, 1, 2,
// K+1}, the local replica, a GUID, its attachment AS and a failed proper
// subset of the distinct replica hosts. The closed-form Insert and the wire
// InsertAsync (no fault injector) must agree on status, replicas and
// latency, the latter to 1e-4 ms because the wire sums a write's two
// one-way legs separately. The one place the model lets them differ is the
// paper's W <= 1 write: the closed form completes at the slowest replica
// RTT, dead or alive, while the wire waits out a dead replica's stand-in
// timeout; there the wire must report the slowest of its live RTTs and
// dead stand-ins. A second leg moves a few registered GUIDs to one AS
// through BatchUpdate and BatchUpdateAsync (no failures): message and
// entry counts and the stored replicas must match.
class WriteAgreementSweepTest : public NetworkFaultTest,
                                public testing::WithParamInterface<int> {};

TEST_P(WriteAgreementSweepTest, ClosedFormAndWireAgree) {
  Rng rng(0x3417e000ULL + std::uint64_t(GetParam()));
  const AsId num_ases = env_.graph.num_nodes();
  const int k = int(rng.NextInRange(1, 5));
  const int quorums[] = {0, 1, 2, k + 1};
  const int w = quorums[rng.NextBounded(4)];
  const bool local = rng.NextBernoulli(0.5);
  const Guid g = Guid::FromSequence(rng.NextBounded(1'000'000));
  const NetworkAddress na{AsId(rng.NextBounded(num_ases)), 1};

  DMapOptions service_options;
  service_options.k = k;
  service_options.local_replica = local;
  service_options.write_quorum = w;
  ProtocolNetworkOptions net_options;
  net_options.k = k;
  net_options.local_replica = local;
  net_options.write_quorum = w;

  // Failed set: a random proper subset of the distinct replica hosts.
  std::vector<AsId> hosts;
  {
    DMapService reference(env_.graph, env_.table, service_options);
    hosts = reference.Insert(g, na).replicas;
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  for (std::size_t i = hosts.size(); i > 1; --i) {
    std::swap(hosts[i - 1], hosts[rng.NextBounded(i)]);
  }
  const std::vector<AsId> failed(
      hosts.begin(), hosts.begin() + std::ptrdiff_t(rng.NextBounded(
                                         hosts.size())));
  const auto is_failed = [&](AsId as) {
    return std::find(failed.begin(), failed.end(), as) != failed.end();
  };
  FailureView view;
  for (const AsId as : failed) view.Fail(as);
  SCOPED_TRACE(testing::Message() << "k=" << k << " w=" << w << " local="
                                  << local << " failed=" << failed.size());

  DMapService service(env_.graph, env_.table, service_options);
  service.SetFailureView(view);
  const UpdateResult expected = service.Insert(g, na);

  ProtocolNetwork net(env_.graph, env_.table, net_options);
  net.SetFailureView(view);
  std::optional<UpdateResult> got;
  net.InsertAsync(g, na, [&](const UpdateResult& r) { got = r; });
  net.simulator().Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, expected.status);
  EXPECT_EQ(got->replicas, expected.replicas);
  EXPECT_EQ(got->version, expected.version);
  if (ResolveQuorum(w, k + (local ? 1 : 0)) > 1 || failed.empty()) {
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-4);
  } else {
    double slowest = 0.0;
    for (const AsId host : expected.replicas) {
      const double rtt = net.oracle().RttMs(na.as, host);
      slowest = std::max(
          slowest, is_failed(host)
                       ? AdaptiveTimeoutMs(net_options.failure_timeout_ms, 0,
                                           net_options.retry_backoff, rtt)
                       : rtt);
    }
    EXPECT_NEAR(got->latency_ms, slowest, 1e-4);
    EXPECT_GE(got->latency_ms + 1e-4, expected.latency_ms);
  }

  // Batch leg: a host carrying a few registered GUIDs moves to one AS.
  DMapService batch_service(env_.graph, env_.table, service_options);
  ProtocolNetwork batch_net(env_.graph, env_.table, net_options);
  const std::uint64_t first = 2'000'000 + rng.NextBounded(1'000'000);
  const int guids = int(rng.NextInRange(1, 6));
  const AsId to = AsId(rng.NextBounded(num_ases));
  std::vector<std::pair<Guid, NetworkAddress>> moves;
  std::vector<AsId> from;
  for (int i = 0; i < guids; ++i) {
    const Guid guid = Guid::FromSequence(first + std::uint64_t(i));
    const NetworkAddress at{AsId(rng.NextBounded(num_ases)), 1};
    (void)batch_service.Insert(guid, at);
    batch_net.InsertAsync(guid, at, [](const UpdateResult&) {});
    batch_net.simulator().Run();
    moves.emplace_back(guid, NetworkAddress{to, 2});
    from.push_back(at.as);
  }
  const BatchUpdateResult want = batch_service.BatchUpdate(moves);
  std::optional<BatchUpdateResult> wave;
  batch_net.BatchUpdateAsync(moves,
                             [&](const BatchUpdateResult& r) { wave = r; });
  batch_net.simulator().Run();
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->guids, want.guids);
  EXPECT_EQ(wave->messages, want.messages);
  EXPECT_EQ(wave->unbatched_messages, want.unbatched_messages);
  EXPECT_EQ(wave->entries, want.entries);
  EXPECT_EQ(wave->entries_applied, wave->entries);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const Guid& guid = moves[i].first;
    for (AsId as = 0; as < num_ases; ++as) {
      const MappingEntry* a = batch_service.StoreLookup(as, guid);
      const MappingEntry* b = batch_net.node(as).store().Lookup(guid);
      ASSERT_EQ(a == nullptr, b == nullptr) << "guid " << i << " AS " << as;
      if (a == nullptr) continue;
      EXPECT_EQ(a->version, b->version);
      EXPECT_EQ(a->writer, b->writer);
      EXPECT_TRUE(a->nas == b->nas);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteAgreementSweepTest, testing::Range(0, 64));

// A replica that crashed, lost its store, and recovered answers "missing";
// the lookup that finds the mapping elsewhere re-replicates it there, and
// the next lookup is back to first-probe cost.
TEST_F(NetworkFaultTest, RecoveredEmptyReplicaIsRepairedByLookup) {
  const ProtocolNetworkOptions options = Options();
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  const std::uint64_t seq = FindRepairableSeq(options, querier, na);
  ASSERT_NE(seq, 0u) << "no repairable GUID found";

  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(seq);
  std::optional<UpdateResult> inserted;
  net.InsertAsync(g, na, [&](const UpdateResult& r) { inserted = r; });
  net.simulator().Run();
  ASSERT_TRUE(inserted.has_value());

  const auto plan = ReferencePlan(options, g, na, querier);
  const AsId crashed = plan[0].host;

  // Crash-with-wipe, then immediate recovery: the host is live but empty.
  net.node(crashed).store().Clear();
  ASSERT_EQ(net.node(crashed).store().Lookup(g), nullptr);

  std::optional<LookupResult> first;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { first = r; });
  net.simulator().Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->found);
  EXPECT_EQ(first->attempts, 2);  // miss at the empty host, hit at the next
  EXPECT_EQ(net.repairs_sent(), 1u);

  // The repair re-inserted the entry (same version) at the empty host.
  const MappingEntry* repaired = net.node(crashed).store().Lookup(g);
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->version, inserted->version);

  std::optional<LookupResult> second;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { second = r; });
  net.simulator().Run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->found);
  EXPECT_EQ(second->attempts, 1);  // back to normal cost
  EXPECT_NEAR(second->latency_ms, plan[0].rtt, 1e-4);
}

// The whole tentpole arc through the declarative plan: a scheduled crash
// wipes the store, the AS recovers empty, and the first lookup that finds
// the mapping elsewhere repairs it.
TEST_F(NetworkFaultTest, FaultPlanCrashWipeRecoverRepairEndToEnd) {
  const ProtocolNetworkOptions options = Options();
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  const std::uint64_t seq = FindRepairableSeq(options, querier, na);
  ASSERT_NE(seq, 0u) << "no repairable GUID found";

  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(seq);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const auto plan = ReferencePlan(options, g, na, querier);
  const AsId crashed = plan[0].host;
  ASSERT_NE(crashed, plan[1].host);
  const double now = net.simulator().Now().millis();

  FaultPlan fault_plan;
  CrashWindow window;
  window.as = crashed;
  window.down_at = SimTime::Millis(now + 10.0);
  window.up_at = SimTime::Millis(now + 50.0);
  fault_plan.crashes.push_back(window);
  net.ApplyFaultPlan(fault_plan, /*seed=*/3);

  // Look up after the recovery: the host is live again but empty.
  std::optional<LookupResult> result;
  net.simulator().Schedule(SimTime::Millis(60.0), [&] {
    net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  });
  net.simulator().Run();

  EXPECT_EQ(net.store_wipes(), 1u);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 2);
  EXPECT_EQ(net.repairs_sent(), 1u);
  EXPECT_NE(net.node(crashed).store().Lookup(g), nullptr);
}

// Satellite: the unified insert completion also covers the all-acks-lost
// case — every slot resolves via its stand-in timeout and the operation
// completes at the slowest one.
TEST_F(NetworkFaultTest, InsertCompletesWhenEveryMessageIsLost) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  FaultPlan plan;
  plan.drop_probability = 1.0;  // nothing is ever delivered
  net.ApplyFaultPlan(plan, /*seed=*/1);

  const NetworkAddress na{10, 1};
  std::optional<UpdateResult> result;
  net.InsertAsync(Guid::FromSequence(8), na,
                  [&](const UpdateResult& r) { result = r; });
  net.simulator().Run();
  ASSERT_TRUE(result.has_value());

  double expected = 0.0;
  for (const AsId host : result->replicas) {
    const double rtt = 2.0 * net.oracle().OneWayMs(na.as, host);
    expected = std::max(expected,
                        std::max(options.failure_timeout_ms, 1.5 * rtt));
  }
  EXPECT_NEAR(result->latency_ms, expected, 1e-9);
  EXPECT_EQ(net.messages_dropped(), 3u);  // the three replica writes
}

// Duplicated traffic must be invisible to results: duplicate acks and
// responses are absorbed, timings match an unfaulted run.
TEST_F(NetworkFaultTest, DuplicatedTrafficIsIdempotent) {
  const ProtocolNetworkOptions options = Options();
  const Guid g = Guid::FromSequence(9);
  const NetworkAddress na{10, 1};
  const AsId querier = 200;

  const auto run = [&](bool duplicate) {
    ProtocolNetwork net(env_.graph, env_.table, options);
    if (duplicate) {
      FaultPlan plan;
      plan.duplicate_probability = 1.0;  // every message arrives twice
      net.ApplyFaultPlan(plan, /*seed=*/2);
    }
    std::optional<UpdateResult> insert_result;
    net.InsertAsync(g, na,
                    [&](const UpdateResult& r) { insert_result = r; });
    net.simulator().Run();
    std::optional<LookupResult> lookup_result;
    net.LookupAsync(g, querier,
                    [&](const LookupResult& r) { lookup_result = r; });
    net.simulator().Run();
    EXPECT_TRUE(insert_result.has_value());
    EXPECT_TRUE(lookup_result.has_value());
    if (duplicate) {
      EXPECT_GT(net.duplicates_delivered(), 0u);
      EXPECT_EQ(net.messages_dropped(), 0u);
    }
    return std::pair<UpdateResult, LookupResult>{*insert_result,
                                                 *lookup_result};
  };

  const auto [plain_insert, plain_lookup] = run(false);
  const auto [dup_insert, dup_lookup] = run(true);
  EXPECT_NEAR(dup_insert.latency_ms, plain_insert.latency_ms, 1e-9);
  EXPECT_EQ(dup_insert.replicas, plain_insert.replicas);
  EXPECT_TRUE(dup_lookup.found);
  EXPECT_NEAR(dup_lookup.latency_ms, plain_lookup.latency_ms, 1e-9);
  EXPECT_EQ(dup_lookup.attempts, plain_lookup.attempts);
  EXPECT_EQ(dup_lookup.nas, plain_lookup.nas);
}

// Satellite: deputy migration racing a concurrent failure. A churn orphan
// whose deputies (the ASs still holding the mapping) are down cannot be
// fetched — the node's migration stalls, and the *client's* timeout is
// what keeps the lookup live: it falls through and still completes. After
// the deputies recover, the same lookup resolves.
TEST_F(NetworkFaultTest, DeputyMigrationUnderConcurrentFailure) {
  ProtocolNetworkOptions options = Options(5);
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 120;
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
  churn.announce_fraction = 0.05;  // new prefixes: orphan scenario
  churn.num_ases = env_.graph.num_nodes();
  ApplyChurn(env_.table, SampleChurn(env_.table, churn, rng));

  // Find a GUID whose post-churn probe plan mixes holders with an orphaned
  // AS that will hunt its deputies when probed (non-empty candidate list).
  // With every holder failed, the client's fall-through reaches the orphan
  // and its migration hunt races the dead deputies.
  DMapOptions ref_options;
  ref_options.k = 5;
  ref_options.local_replica = false;
  DMapService reference(env_.graph, env_.table, ref_options);
  const AsId querier = 77;
  Guid victim;
  bool found_scenario = false;
  for (std::uint64_t i = 0; i < params.num_guids && !found_scenario; ++i) {
    const Guid guid = workload.GuidAt(i);
    bool has_holder = false, has_hunter = false;
    for (const PlannedProbe& probe : reference.Plan(guid, querier)) {
      if (net.node(probe.host).store().Lookup(guid) != nullptr) {
        has_holder = true;
      } else if (!net.node(probe.host).DeputyCandidates(guid).empty()) {
        has_hunter = true;
      }
    }
    if (has_holder && has_hunter) {
      victim = guid;
      found_scenario = true;
    }
  }
  ASSERT_TRUE(found_scenario) << "churn produced no orphaned probe target";

  std::vector<AsId> holders;
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    if (net.node(as).store().Lookup(victim) != nullptr) holders.push_back(as);
  }
  ASSERT_FALSE(holders.empty());

  // Take down every AS still holding the mapping: any migration hunt dies
  // with its deputy mid-exchange.
  const std::uint64_t hunts_before = TotalMigrationHunts(net);
  for (const AsId holder : holders) net.FailAs(holder);

  std::optional<LookupResult> during;
  net.LookupAsync(victim, querier,
                  [&](const LookupResult& r) { during = r; });
  net.simulator().Run();
  // The client completes regardless: a stalled migration never hangs the
  // lookup, the client-side timeouts drive it to a terminal result.
  ASSERT_TRUE(during.has_value());

  // Deputies recover: the mapping is reachable again.
  for (const AsId holder : holders) net.RecoverAs(holder);
  std::optional<LookupResult> after;
  net.LookupAsync(victim, querier,
                  [&](const LookupResult& r) { after = r; });
  net.simulator().Run();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->found);

  // And the wider stream still terminates under the same conditions: no
  // lookup may hang on a stalled migration.
  for (const AsId holder : holders) net.FailAs(holder);
  int completed = 0;
  for (const LookupOp& op : workload.Lookups(50)) {
    std::optional<LookupResult> r;
    net.LookupAsync(op.guid, op.source,
                    [&](const LookupResult& result) { r = result; });
    net.simulator().Run();
    ASSERT_TRUE(r.has_value());
    ++completed;
  }
  EXPECT_EQ(completed, 50);
  // Across the run, migrations really were racing the failed deputies.
  EXPECT_GT(TotalMigrationHunts(net), hunts_before);
}

// Client ops live in reused slots and replies are routed by request id.
// Under drops, duplicates and jitter, late copies of replies keep arriving
// after their op completed, while a newer op may already hold its slot:
// they must fall through to the node and never complete or alter that op.
// Every callback fires exactly once, every insert reports its own version
// and every found lookup answers with an NA of its own GUID.
class WireOpSlotTest : public NetworkFaultTest,
                       public testing::WithParamInterface<int> {};

TEST_P(WireOpSlotTest, LateRepliesNeverReachTheOpReusingTheirSlot) {
  ProtocolNetworkOptions options = Options(3);
  options.read_quorum = GetParam();
  options.probe_retries = 1;
  ProtocolNetwork net(env_.graph, env_.table, options);
  FaultPlan plan;
  plan.drop_probability = 0.15;
  plan.duplicate_probability = 0.4;
  plan.jitter_ms = 150.0;
  net.ApplyFaultPlan(plan, /*seed=*/11);

  constexpr std::uint32_t kGuids = 32;
  const auto n = std::uint64_t(env_.graph.num_nodes());
  Rng rng(19);
  std::vector<std::uint32_t> writes(kGuids, 0);
  std::vector<int> calls;  // callbacks seen, per op
  const auto insert = [&](std::uint32_t g) {
    const std::size_t id = calls.size();
    calls.push_back(0);
    const std::uint32_t version = ++writes[g];
    // The locator names its GUID: g * 1000 + version.
    const NetworkAddress na{AsId(rng.NextBounded(n)), g * 1000 + version};
    net.InsertAsync(Guid::FromSequence(g), na,
                    [&calls, id, version](const UpdateResult& r) {
                      ++calls[id];
                      EXPECT_EQ(r.version, version) << "op " << id;
                    });
  };
  const auto lookup = [&](std::uint32_t g) {
    const std::size_t id = calls.size();
    calls.push_back(0);
    net.LookupAsync(Guid::FromSequence(g), AsId(rng.NextBounded(n)),
                    [&calls, id, g](const LookupResult& r) {
                      ++calls[id];
                      if (!r.found) return;
                      ASSERT_FALSE(r.nas.empty()) << "op " << id;
                      EXPECT_EQ(r.nas[0].locator / 1000, g) << "op " << id;
                    });
  };

  for (std::uint32_t g = 0; g < kGuids; ++g) insert(g);
  net.simulator().Run();
  for (int wave = 0; wave < 40; ++wave) {
    for (int i = 0; i < 6; ++i) {
      const auto g = std::uint32_t(rng.NextBounded(kGuids));
      rng.NextBounded(5) == 0 ? insert(g) : lookup(g);
    }
    // Late copies of this wave's traffic are still in flight when the next
    // wave takes over the slots its finished ops released.
    net.simulator().RunUntil(net.simulator().Now() + SimTime::Millis(120));
  }
  net.simulator().Run();
  for (std::size_t id = 0; id < calls.size(); ++id) {
    EXPECT_EQ(calls[id], 1) << "op " << id;
  }
  EXPECT_GT(net.duplicates_delivered(), 0u);
  EXPECT_GT(net.late_replies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ReadQuorum, WireOpSlotTest, testing::Values(1, 2));

}  // namespace
}  // namespace dmap
