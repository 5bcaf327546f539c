#include "sim/event_driven.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/failure_view.h"
#include "obs/metrics_registry.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class EventDrivenTest : public testing::Test {
 protected:
  EventDrivenTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 17))) {}

  DMapOptions Options(int k = 3) {
    DMapOptions o;
    o.k = k;
    o.measure_update_latency = false;
    return o;
  }

  SimEnvironment env_;
};

TEST_F(EventDrivenTest, CompletesWithCorrectResult) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(1);
  (void)service.Insert(g, NetworkAddress{10, 1});

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> result;
  executor.LookupAsync(g, 200, SimTime::Millis(5),
                       [&](const LookupResult& r) { result = r; });
  sim.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_TRUE(result->nas.AttachedTo(10));
}

TEST_F(EventDrivenTest, AgreesWithClosedFormOnSuccessfulLookups) {
  // The core cross-validation: the event-driven exchange must reproduce
  // the closed-form latency exactly, across many GUIDs and queriers.
  DMapService service(env_.graph, env_.table, Options());
  WorkloadParams params;
  params.num_guids = 200;
  params.seed = 3;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    (void)service.Insert(op.guid, op.na);
  }

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  int checked = 0;
  for (const LookupOp& op : workload.Lookups(300)) {
    const LookupResult expected = service.Lookup(op.guid, op.source);
    std::optional<LookupResult> got;
    executor.LookupAsync(op.guid, op.source, SimTime::Zero(),
                         [&](const LookupResult& r) { got = r; });
    sim.Run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->found, expected.found);
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-9)
        << "guid lookup from AS " << op.source;
    EXPECT_EQ(got->served_locally, expected.served_locally);
    if (got->found) {
      EXPECT_EQ(got->nas, expected.nas);
    }
    EXPECT_EQ(got->serving_as, expected.serving_as);
    EXPECT_FALSE(got->served_from_cache);
    EXPECT_EQ(got->admission, AdmissionOutcome::kServed);
    EXPECT_EQ(got->queue_delay_ms, 0.0);
    if (!expected.served_locally) {
      EXPECT_EQ(got->attempts, expected.attempts);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 300);
}

TEST_F(EventDrivenTest, AgreesWithClosedFormUnderFailures) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.failure_timeout_ms = 321.0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(2);
  (void)service.Insert(g, NetworkAddress{10, 1});

  const auto plan = service.Plan(g, 99);
  service.SetFailedAses({plan[0].host});

  const LookupResult expected = service.Lookup(g, 99);
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> got;
  executor.LookupAsync(g, 99, SimTime::Zero(),
                       [&](const LookupResult& r) { got = r; });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->found, expected.found);
  EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-9);
  EXPECT_EQ(got->attempts, expected.attempts);
}

TEST_F(EventDrivenTest, SharedFailureViewKeepsPathsAgreeingOnTimings) {
  // Satellite property: one FailureView configured once must drive the
  // closed-form and event-driven paths to identical failure timings — and
  // round-trip through the legacy SetFailedAses API without divergence.
  DMapOptions options = Options();
  options.local_replica = false;
  options.failure_timeout_ms = 250.0;
  options.probe_retries = 2;
  options.retry_backoff = 2.5;
  DMapService service(env_.graph, env_.table, options);
  DMapService legacy(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 100;
  params.seed = 6;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    (void)service.Insert(op.guid, op.na);
    (void)legacy.Insert(op.guid, op.na);
  }

  FailureView view;
  std::vector<AsId> failed;
  for (AsId as = 2; as < env_.graph.num_nodes(); as += 7) {
    failed.push_back(as);
  }
  view.SetFailed(failed);
  service.SetFailureView(view);
  // The legacy path is fed the view's own snapshot: both must agree.
  legacy.SetFailedAses(view.FailedAt(SimTime::Zero()));

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  int with_failures = 0;
  for (const LookupOp& op : workload.Lookups(200)) {
    const LookupResult expected = service.Lookup(op.guid, op.source);
    const LookupResult via_legacy = legacy.Lookup(op.guid, op.source);
    EXPECT_EQ(via_legacy.found, expected.found);
    EXPECT_NEAR(via_legacy.latency_ms, expected.latency_ms, 1e-9);
    EXPECT_EQ(via_legacy.attempts, expected.attempts);

    std::optional<LookupResult> got;
    executor.LookupAsync(op.guid, op.source, SimTime::Zero(),
                         [&](const LookupResult& r) { got = r; });
    sim.Run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->found, expected.found);
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-9)
        << "guid lookup from AS " << op.source;
    EXPECT_EQ(got->attempts, expected.attempts);
    if (expected.attempts > 1) ++with_failures;
  }
  // The schedule must actually have been exercised, not dodged.
  EXPECT_GT(with_failures, 0);
}

TEST_F(EventDrivenTest, TimeVaryingWindowsTakeEffectAtProbeTime) {
  // The event-driven path consults the scheduled view: a replica inside an
  // outage window is probed around, one past its recovery answers again.
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(42);
  (void)service.Insert(g, NetworkAddress{10, 1});
  const auto plan = service.Plan(g, 99);

  FailureView view;
  view.AddWindow(plan[0].host, SimTime::Zero(), SimTime::Millis(1000.0));
  service.SetFailureView(view);
  ASSERT_TRUE(view.TimeVarying());

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  // Inside the window: the first replica times out.
  std::optional<LookupResult> during;
  executor.LookupAsync(g, 99, SimTime::Zero(),
                       [&](const LookupResult& r) { during = r; });
  sim.Run();
  ASSERT_TRUE(during.has_value());
  EXPECT_TRUE(during->found);
  EXPECT_EQ(during->attempts, 2);

  // Past the window: the replica answers first-try again.
  std::optional<LookupResult> after;
  executor.LookupAsync(g, 99, SimTime::Millis(2000.0),
                       [&](const LookupResult& r) { after = r; });
  sim.Run();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->found);
  EXPECT_EQ(after->attempts, 1);
}

TEST_F(EventDrivenTest, MissReportsAccumulatedCost) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid unknown = Guid::FromSequence(999);

  const LookupResult expected = service.Lookup(unknown, 50);
  ASSERT_FALSE(expected.found);

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> got;
  executor.LookupAsync(unknown, 50, SimTime::Zero(),
                       [&](const LookupResult& r) { got = r; });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->found);
  EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-9);
  EXPECT_EQ(got->attempts, options.k);
}

TEST_F(EventDrivenTest, ConcurrentLookupsDoNotInterfere) {
  DMapService service(env_.graph, env_.table, Options());
  WorkloadParams params;
  params.num_guids = 50;
  params.seed = 4;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    (void)service.Insert(op.guid, op.na);
  }

  // Launch 100 lookups at staggered starts in a single simulation run.
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::vector<std::pair<LookupOp, std::optional<LookupResult>>> flights;
  flights.reserve(100);
  for (const LookupOp& op : workload.Lookups(100)) {
    flights.emplace_back(op, std::nullopt);
  }
  for (std::size_t i = 0; i < flights.size(); ++i) {
    executor.LookupAsync(
        flights[i].first.guid, flights[i].first.source,
        SimTime::Millis(double(i) * 0.37),
        [&flights, i](const LookupResult& r) { flights[i].second = r; });
  }
  sim.Run();
  for (auto& [op, result] : flights) {
    ASSERT_TRUE(result.has_value());
    const LookupResult expected = service.Lookup(op.guid, op.source);
    EXPECT_NEAR(result->latency_ms, expected.latency_ms, 1e-9);
  }
}

// Executors driven concurrently on distinct shards share no mutable state:
// Plan resolves on the executor's own Algorithm 1 metrics slab, not
// worker 0's, so two threads never write one slab (the TSan job checks the
// race), and the merged algo1.* totals equal a serial run's.
TEST_F(EventDrivenTest, ConcurrentShardsKeepAlgo1MetricsApart) {
  WorkloadParams params;
  params.num_guids = 80;
  params.seed = 6;
  WorkloadGenerator workload(env_.graph, params);
  const std::vector<InsertOp> inserts = workload.Inserts();
  const std::vector<LookupOp> lookups = workload.Lookups(200);

  const auto algo1_totals = [&](bool concurrent) {
    DMapService service(env_.graph, env_.table, Options());
    for (const InsertOp& op : inserts) (void)service.Insert(op.guid, op.na);
    service.RefreshReadSnapshots();
    service.oracle().SetNumShards(2);
    MetricsRegistry registry(2);
    service.SetMetrics(&registry);  // lookups only: inserts already ran

    const auto run_shard = [&](unsigned shard) {
      Simulator sim;
      EventDrivenLookup executor(sim, service, shard);
      for (std::size_t i = shard; i < lookups.size(); i += 2) {
        executor.LookupAsync(lookups[i].guid, lookups[i].source,
                             SimTime::Zero(), [](const LookupResult&) {});
      }
      sim.Run();
    };
    if (concurrent) {
      std::thread first(run_shard, 0u);
      std::thread second(run_shard, 1u);
      first.join();
      second.join();
    } else {
      run_shard(0);
      run_shard(1);
    }

    std::map<std::string, std::uint64_t> totals;
    const MetricsSnapshot snapshot = registry.Snapshot();
    for (const CounterSnapshot& counter : snapshot.counters) {
      if (counter.name.rfind("algo1.", 0) == 0) {
        totals[counter.name] = counter.value;
      }
    }
    for (const HistogramSnapshot& histogram : snapshot.histograms) {
      if (histogram.name.rfind("algo1.", 0) == 0) {
        totals[histogram.name] = histogram.count;
      }
    }
    return totals;
  };

  const auto serial = algo1_totals(false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(algo1_totals(true), serial);
}

TEST_F(EventDrivenTest, UnknownQuerierThrows) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(12);
  (void)service.Insert(g, NetworkAddress{10, 1});
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  bool called = false;
  EXPECT_THROW(executor.LookupAsync(g, env_.graph.num_nodes() + 5,
                                    SimTime::Zero(),
                                    [&](const LookupResult&) {
                                      called = true;
                                    }),
               std::invalid_argument);
  // Rejected synchronously: nothing was scheduled.
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_FALSE(called);
}

ServingConfig TierConfig() {
  ServingConfig config;
  config.enabled = true;
  config.model = ServiceModel::kDeterministic;
  config.service_rate_per_s = 2000.0;  // 0.5 ms per request
  config.bucket_rate_per_s = 0.0;      // bucket off
  return config;
}

// With an idle tier installed, a one-probe lookup costs exactly the
// closed-form network latency plus one deterministic service time.
TEST_F(EventDrivenTest, ServingTierAddsServiceTimeWhenIdle) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(21);
  (void)service.Insert(g, NetworkAddress{10, 1});
  const LookupResult expected = service.Lookup(g, 77);
  ASSERT_TRUE(expected.found);
  ASSERT_EQ(expected.attempts, 1);

  ServingTier tier(TierConfig());
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  executor.SetServingTier(&tier);
  std::optional<LookupResult> got;
  executor.LookupAsync(g, 77, SimTime::Zero(),
                       [&](const LookupResult& r) { got = r; });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->admission, AdmissionOutcome::kServed);
  EXPECT_DOUBLE_EQ(got->queue_delay_ms, 0.0);
  EXPECT_NEAR(got->latency_ms, expected.latency_ms + 0.5, 1e-9);
}

// Two simultaneous lookups hitting the same c=1 replica: one is served at
// once, the other reports a queue wait of exactly one service time.
TEST_F(EventDrivenTest, ServingTierQueuesConcurrentArrivals) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(22);
  (void)service.Insert(g, NetworkAddress{10, 1});

  ServingTier tier(TierConfig());
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  executor.SetServingTier(&tier);
  std::vector<LookupResult> got;
  for (int i = 0; i < 2; ++i) {
    executor.LookupAsync(g, 77, SimTime::Zero(),
                         [&](const LookupResult& r) { got.push_back(r); });
  }
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  // Completion order = service order: first served, then queued.
  EXPECT_EQ(got[0].admission, AdmissionOutcome::kServed);
  EXPECT_EQ(got[1].admission, AdmissionOutcome::kQueued);
  EXPECT_DOUBLE_EQ(got[0].queue_delay_ms, 0.0);
  EXPECT_DOUBLE_EQ(got[1].queue_delay_ms, 0.5);
  EXPECT_NEAR(got[1].latency_ms, got[0].latency_ms + 0.5, 1e-9);
  EXPECT_EQ(tier.served(), 1u);
  EXPECT_EQ(tier.queued(), 1u);
}

// A shed is silent: the client's timeout fires and the lookup falls
// through to the next replica, which answers — overload costs a timeout
// but not the result.
TEST_F(EventDrivenTest, ShedProbeFallsThroughToNextReplica) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.probe_retries = 0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(23);
  (void)service.Insert(g, NetworkAddress{10, 1});

  ServingConfig config = TierConfig();
  config.bucket_rate_per_s = 1e-6;  // effectively no refill (0 = unlimited)
  config.bucket_burst = 1.0;
  ServingTier tier(config);
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  executor.SetServingTier(&tier);

  // The first lookup drains replica 1's only token; the second, same plan,
  // is shed there and must fall through.
  std::optional<LookupResult> first, second;
  executor.LookupAsync(g, 77, SimTime::Zero(),
                       [&](const LookupResult& r) { first = r; });
  executor.LookupAsync(g, 77, SimTime::Millis(500.0),
                       [&](const LookupResult& r) { second = r; });
  sim.Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->found);
  EXPECT_EQ(first->attempts, 1);
  EXPECT_TRUE(second->found);
  // Replicas can collide on an AS (K hashes, one owner), so the lookup may
  // shed more than once before meeting a fresh bucket — but every shed
  // costs exactly one fall-through probe.
  EXPECT_GE(second->attempts, 2);
  EXPECT_EQ(second->attempts, 1 + int(tier.shed_tokens()));
  // Resolved by a later replica's admission, so the terminal outcome is
  // served — but the detour cost at least one probe timeout on top.
  EXPECT_EQ(second->admission, AdmissionOutcome::kServed);
  EXPECT_GT(second->latency_ms, first->latency_ms);
}

// When every replica sheds, the lookup exhausts its plan and reports the
// overload: found = false with a terminal kShed admission.
TEST_F(EventDrivenTest, TotalShedReportsShedOutcome) {
  DMapOptions options = Options(/*k=*/1);
  options.local_replica = false;
  options.probe_retries = 0;
  DMapService service(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(24);
  (void)service.Insert(g, NetworkAddress{10, 1});

  ServingConfig config = TierConfig();
  config.bucket_rate_per_s = 1e-6;
  config.bucket_burst = 1.0;
  ServingTier tier(config);
  Simulator sim;
  EventDrivenLookup executor(sim, service);
  executor.SetServingTier(&tier);

  std::optional<LookupResult> first, second;
  executor.LookupAsync(g, 77, SimTime::Zero(),
                       [&](const LookupResult& r) { first = r; });
  executor.LookupAsync(g, 77, SimTime::Millis(500.0),
                       [&](const LookupResult& r) { second = r; });
  sim.Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->found);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->found);
  EXPECT_EQ(second->admission, AdmissionOutcome::kShed);
  EXPECT_EQ(second->attempts, 1);
  EXPECT_GT(second->latency_ms, 0.0);
}

TEST_F(EventDrivenTest, LocalWinsRaceWhenCloserEventCancelled) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(5);
  (void)service.Insert(g, NetworkAddress{42, 1});

  Simulator sim;
  EventDrivenLookup executor(sim, service);
  std::optional<LookupResult> got;
  int callbacks = 0;
  executor.LookupAsync(g, 42, SimTime::Zero(), [&](const LookupResult& r) {
    got = r;
    ++callbacks;
  });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(callbacks, 1);  // exactly one completion despite the race
  EXPECT_TRUE(got->served_locally);
  EXPECT_NEAR(got->latency_ms, 2.0 * env_.graph.IntraLatencyMs(42), 1e-9);
}

}  // namespace
}  // namespace dmap
