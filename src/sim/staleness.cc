#include "sim/staleness.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/dmap_service.h"
#include "event/simulator.h"
#include "workload/workload.h"

namespace dmap {
namespace {

// Mean time between queries per host, aggregated over its correspondents.
constexpr double kMeanQueryIntervalS = 5.0;
// The keep-checking retry interval after a stale answer.
constexpr double kRecheckIntervalMs = 50.0;
// Seed of the host GUIDs and of the move and query processes.
constexpr std::uint64_t kSeed = 1;

// Shared mutable state for the event processes.
struct World {
  Simulator sim;
  DMapService* service = nullptr;
  const AsGraph* graph = nullptr;
  Rng rng{0};
  StalenessConfig config;
  StalenessReport report;

  // Per-host ground truth: where the host actually is right now (moves
  // take effect immediately for the host itself) and its locator counter.
  std::vector<AsId> true_as;
  std::vector<std::uint32_t> next_locator;
  // Monotone move counter per host: an in-flight binding update is dropped
  // when a newer move supersedes it, modelling the version gating that
  // rejects out-of-order updates at the replicas (Section III-D-2).
  std::vector<std::uint64_t> move_id;

  AliasSampler* source_sampler = nullptr;

  Guid HostGuid(std::uint32_t host) const {
    return Guid::FromSequence(host ^ (kSeed * 0x9e3779b97f4a7c15ULL));
  }
};

void ScheduleMove(World& world, std::uint32_t host);
void ScheduleQuery(World& world, std::uint32_t host);

void DoMove(World& world, std::uint32_t host) {
  // The host re-attaches NOW; the mapping update lands max-replica-RTT
  // later — that window is where stale answers come from.
  const AsId new_as =
      AsId(world.source_sampler->Sample(world.rng));
  world.true_as[host] = new_as;
  ++world.report.moves;
  const NetworkAddress na{new_as, world.next_locator[host]++};
  const Guid guid = world.HostGuid(host);

  // Compute the update latency without applying, then apply at completion
  // — unless a newer move has superseded this one by then (its stale
  // replica writes would be version-rejected anyway).
  const std::uint64_t this_move = ++world.move_id[host];
  std::vector<AsId> replicas;
  for (const HostResolution& r : world.service->ReplicaResolutions(guid)) {
    replicas.push_back(r.host);
  }
  std::vector<double> rtts(replicas.size());
  world.service->oracle().RttsMs(new_as, replicas.data(), replicas.size(),
                                 rtts.data());
  double max_rtt = 0;
  for (const double rtt : rtts) max_rtt = std::max(max_rtt, rtt);
  world.sim.Schedule(SimTime::Millis(max_rtt),
                     [&world, guid, na, host, this_move] {
                       if (world.move_id[host] == this_move) {
                         // Registration-delay model: only the arrival time
                         // of the update matters, not its outcome.
                         (void)world.service->Update(guid, na);
                       }
                     });

  ScheduleMove(world, host);
}

void ScheduleMove(World& world, std::uint32_t host) {
  const double delay_s =
      world.rng.NextExponential(world.config.mean_move_interval_s);
  if ((world.sim.Now() + SimTime::Seconds(delay_s)).seconds() >
      world.config.duration_s) {
    return;
  }
  world.sim.Schedule(SimTime::Seconds(delay_s),
                     [&world, host] { DoMove(world, host); });
}

// One keep-checking chain for a query that may start stale.
void CheckOnce(World& world, std::uint32_t host, AsId querier,
               SimTime first_query_time, int rechecks) {
  const Guid guid = world.HostGuid(host);
  const LookupResult r = world.service->Lookup(guid, querier);
  const bool fresh = r.found && r.nas.AttachedTo(world.true_as[host]);
  const SimTime answer_time =
      world.sim.Now() + SimTime::Millis(r.latency_ms);

  if (rechecks == 0) {
    ++world.report.lookups;
    if (!fresh) ++world.report.stale_first_answers;
  }
  if (fresh) {
    if (rechecks > 0) {
      world.report.time_to_fresh_ms.Add(
          (answer_time - first_query_time).millis());
      world.report.rechecks.Add(double(rechecks));
    }
    return;
  }
  // Obsolete: keep checking (Section III-D-2), bounded so a chain started
  // near the end of the run cannot outlive it.
  constexpr int kMaxRechecks = 200;
  if (rechecks >= kMaxRechecks ||
      answer_time.seconds() > world.config.duration_s * 2) {
    return;
  }
  world.sim.ScheduleAt(
      answer_time + SimTime::Millis(kRecheckIntervalMs),
      [&world, host, querier, first_query_time, rechecks] {
        CheckOnce(world, host, querier, first_query_time, rechecks + 1);
      });
}

void DoQuery(World& world, std::uint32_t host) {
  const AsId querier = AsId(world.source_sampler->Sample(world.rng));
  CheckOnce(world, host, querier, world.sim.Now(), 0);
  ScheduleQuery(world, host);
}

void ScheduleQuery(World& world, std::uint32_t host) {
  const double delay_s =
      world.rng.NextExponential(kMeanQueryIntervalS);
  if ((world.sim.Now() + SimTime::Seconds(delay_s)).seconds() >
      world.config.duration_s) {
    return;
  }
  world.sim.Schedule(SimTime::Seconds(delay_s),
                     [&world, host] { DoQuery(world, host); });
}

}  // namespace

StalenessReport RunStalenessExperiment(SimEnvironment& env,
                                       const StalenessConfig& config) {
  DMapOptions options;
  options.k = config.k;
  options.measure_update_latency = false;
  DMapService service(env.graph, env.table, options);
  if (config.metrics != nullptr) service.SetMetrics(config.metrics);
  if (config.tracer != nullptr) service.SetTracer(config.tracer);

  World world;
  world.service = &service;
  world.graph = &env.graph;
  world.rng = Rng(kSeed);
  world.config = config;
  world.true_as.resize(config.num_hosts);
  world.next_locator.assign(config.num_hosts, 1);
  world.move_id.assign(config.num_hosts, 0);
  AliasSampler sampler(env.graph.end_node_weights());
  world.source_sampler = &sampler;

  // Initial placement + registration.
  for (std::uint32_t host = 0; host < config.num_hosts; ++host) {
    const AsId as = AsId(sampler.Sample(world.rng));
    world.true_as[host] = as;
    (void)service.Insert(world.HostGuid(host),
                         NetworkAddress{as, world.next_locator[host]++});
  }

  // Start the mobility and query processes.
  for (std::uint32_t host = 0; host < config.num_hosts; ++host) {
    ScheduleMove(world, host);
    ScheduleQuery(world, host);
  }
  world.sim.Run();

  world.report.stale_fraction =
      world.report.lookups == 0
          ? 0.0
          : double(world.report.stale_first_answers) /
                double(world.report.lookups);
  return world.report;
}

}  // namespace dmap
