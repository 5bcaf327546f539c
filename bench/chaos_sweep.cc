// Chaos sweep: availability and latency of the wire protocol under
// injected faults. Each point of the sweep runs the full ProtocolNetwork —
// real serialisation, delivery-time failure checks, bounded retransmission
// with exponential backoff, late-reply resolution, and lookup-triggered
// re-replication — under a FaultPlan whose message drop probability is
// swept across a range, with and without the client retry budget.
//
// A --fault-plan file contributes scheduled crash/outage windows (shifted
// to start after the insert phase) plus duplication/jitter; the sweep
// overrides its drop probability per point. Trials are the parallel unit:
// each trial is one serial simulator over an independent workload, message
// fates are pure functions of (seed, message sequence), and per-trial
// results merge in trial order — exports are byte-identical for any
// --threads value.
//
// Expected shape: availability ~ (1 - p^(1+retries))^K per lookup chain —
// retries recover most of what drops take, at the price of the backoff
// latency tail visible in the p95 column.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "fault/fault_plan.h"
#include "proto/network.h"
#include "runtime/thread_pool.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace {

using namespace dmap;

struct TrialResult {
  std::uint64_t found = 0;
  std::uint64_t total = 0;
  SampleSet ok_latency;
  double attempts_sum = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t repairs = 0;
  std::uint64_t dropped = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const bench::FaultPlanArg fault_plan = bench::ReadFaultPlan(args);
  const std::uint64_t fault_seed = bench::FaultSeed(args);
  const std::optional<int> write_quorum = bench::WriteQuorum(args);
  const std::optional<int> read_quorum = bench::ReadQuorum(args);
  bench::CheckArgs(args);

  ThreadPool pool(sim.threads);
  std::printf("=== Chaos sweep: wire protocol under injected faults ===\n");
  std::printf("scale=%.3f threads=%u fault_plan=%s fault_seed=%llu\n\n",
              scale, pool.size(),
              fault_plan.path.empty() ? "(none)" : fault_plan.path.c_str(),
              static_cast<unsigned long long>(fault_seed));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(2000, scale, 200)));
  // Wire-path distances are point queries: every trial's oracle answers
  // them from the shared labels.
  const HubLabels* labels = EnsureHubLabels(env, sim.threads);

  ObservabilitySinks obs(sim);
  if (obs.registry() != nullptr) obs.registry()->EnsureWorkers(pool.size());
  if (obs.tracer() != nullptr) obs.tracer()->EnsureWorkers(pool.size());

  const std::uint64_t num_guids = bench::Scaled(2'000, scale, 200);
  const std::uint64_t num_lookups = bench::Scaled(5'000, scale, 500);
  const std::size_t trials = 4;

  const double drop_points[] = {0.0, 0.02, 0.05, 0.10, 0.20};
  const int retry_points[] = {0, 2};

  TextTable table({"drop p", "retries", "availability", "mean ok (ms)",
                   "p95 ok (ms)", "mean attempts", "retrans", "repairs",
                   "dropped"});
  std::size_t point = 0;
  for (const double drop_p : drop_points) {
    for (const int retries : retry_points) {
      ProtocolNetworkOptions net_options;
      net_options.k = 3;
      net_options.probe_retries = retries;
      // Flags absent: keep the network defaults (majority writes,
      // single-response reads). --write-quorum=1 reproduces the pre-quorum
      // legacy behaviour byte-for-byte (CI diffs it against the golden).
      if (write_quorum) net_options.write_quorum = *write_quorum;
      if (read_quorum) net_options.read_quorum = *read_quorum;
      // Metric registration is a serial phase (obs/metrics_registry.h): a
      // throwaway network registers this point's instruments before the
      // trials share the registry, so their SetMetrics calls only look up.
      if (obs.registry() != nullptr) {
        ProtocolNetwork(env.graph, env.table, net_options)
            .SetMetrics(obs.registry());
      }

      std::vector<TrialResult> results(trials);
      pool.ParallelFor(0, trials, [&](std::size_t trial, unsigned worker) {
        FaultPlan plan = fault_plan.plan;
        plan.drop_probability = drop_p;

        ProtocolNetwork net(env.graph, env.table, net_options);
        net.oracle().SetHubLabels(labels);
        net.SetMetrics(obs.registry(), worker);
        net.SetTracer(obs.tracer(), worker);

        WorkloadParams workload_params;
        workload_params.num_guids = num_guids;
        workload_params.seed = 100 + trial;
        WorkloadGenerator workload(env.graph, workload_params);

        // Insert phase, fault-free: the sweep measures lookup-time
        // resilience, not write-time data loss.
        for (const InsertOp& op : workload.Inserts()) {
          net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
        }
        net.simulator().Run();

        // Chaos phase: plan windows start now; fates keyed off a seed
        // derived from (point, trial) only — never the worker.
        net.ApplyFaultPlan(
            ShiftPlan(plan, net.simulator().Now()),
            fault_seed ^ (0x9e3779b97f4a7c15ULL * (point + 1)) ^
                (0xbf58476d1ce4e5b9ULL * (trial + 1)));

        // Stagger the lookups so scheduled windows open and close while
        // queries are in flight.
        TrialResult& result = results[trial];
        const double spacing_ms = 2.0;
        std::size_t i = 0;
        for (const LookupOp& op : workload.Lookups(num_lookups)) {
          net.simulator().Schedule(
              SimTime::Millis(double(i) * spacing_ms),
              [&net, &result, guid = op.guid, source = op.source] {
                net.LookupAsync(guid, source, [&result](
                                                  const LookupResult& r) {
                  ++result.total;
                  result.attempts_sum += double(r.attempts);
                  if (r.found) {
                    ++result.found;
                    result.ok_latency.Add(r.latency_ms);
                  }
                });
              });
          ++i;
        }
        net.simulator().Run();
        result.retransmissions = net.retransmissions();
        result.repairs = net.repairs_sent();
        result.dropped = net.messages_dropped();
      });

      // Merge in trial order: thread-count independent.
      TrialResult merged;
      for (const TrialResult& r : results) {
        merged.found += r.found;
        merged.total += r.total;
        merged.ok_latency.Append(r.ok_latency);
        merged.attempts_sum += r.attempts_sum;
        merged.retransmissions += r.retransmissions;
        merged.repairs += r.repairs;
        merged.dropped += r.dropped;
      }
      const double total = double(merged.total);
      table.AddRow(
          {TextTable::FormatDouble(drop_p, 2), std::to_string(retries),
           TextTable::FormatDouble(100.0 * double(merged.found) / total, 2) +
               "%",
           merged.ok_latency.count() > 0
               ? TextTable::FormatDouble(merged.ok_latency.mean())
               : "-",
           merged.ok_latency.count() > 0
               ? TextTable::FormatDouble(merged.ok_latency.Quantile(0.95))
               : "-",
           TextTable::FormatDouble(merged.attempts_sum / total, 2),
           std::to_string(merged.retransmissions),
           std::to_string(merged.repairs),
           std::to_string(merged.dropped)});
      ++point;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected: availability ~ (1 - p^(1+retries))^K per chain; the retry\n"
      "budget recovers most dropped probes at the price of the backoff\n"
      "latency tail. Scheduled crash windows (from --fault-plan) show up as\n"
      "repairs: recovered-but-empty replicas are re-replicated by the first\n"
      "lookup that finds the mapping elsewhere.\n");
  obs.Finish();
  return 0;
}
