// Router-failure resilience (Section III-D-3): "the probability for K
// Internet routes to fail at the same time is extremely low, and thus our
// replication strategy also improves system resilience and reliability."
//
// This bench quantifies that claim: with a fraction f of ASs failed
// (mapping servers unreachable; probes time out), it measures availability
// (lookups that still resolve) and the latency of successful lookups for
// K = 1, 3, 5, plus the local-replica rescue effect. Expected shape:
// availability ~ 1 - f^K for the replicas alone, so K = 5 keeps effectively
// full availability at 10% failures while K = 1 loses 10% of lookups.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "core/dmap_service.h"
#include "fault/fault_plan.h"
#include "sim/experiments.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const bench::FaultPlanArg fault_plan = bench::ReadFaultPlan(args);
  bench::CheckArgs(args);

  std::printf("=== Ablation: router failures vs replication (Sec III-D-3) "
              "===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(8000, scale, 300)));

  // A --fault-plan contributes its crash/outage ASs (outages expanded to
  // the customer cone) as statically failed in every row — the closed-form
  // path has no clock, so the plan's window timings collapse to "down".
  std::vector<AsId> planned_failures;
  if (!fault_plan.path.empty()) {
    for (const CrashWindow& window : fault_plan.plan.crashes) {
      planned_failures.push_back(window.as);
    }
    for (const CrashWindow& window : fault_plan.plan.outages) {
      for (const AsId as : CustomerCone(env.graph, window.as)) {
        planned_failures.push_back(as);
      }
    }
    std::sort(planned_failures.begin(), planned_failures.end());
    planned_failures.erase(
        std::unique(planned_failures.begin(), planned_failures.end()),
        planned_failures.end());
    std::printf("fault plan %s: %zu AS(s) held down in every row\n\n",
                fault_plan.path.c_str(), planned_failures.size());
  }

  ObservabilitySinks obs(sim);
  WorkloadParams workload_params;
  workload_params.num_guids = bench::Scaled(20'000, scale, 1000);
  const std::uint64_t lookups = bench::Scaled(50'000, scale, 5000);

  TextTable table({"K", "failed ASs", "availability", "mean ok (ms)",
                   "p95 ok (ms)", "mean attempts"});
  for (const int k : {1, 3, 5}) {
    DMapOptions service_options;
    service_options.k = k;
    service_options.measure_update_latency = false;
    DMapService service(env.graph, env.table, service_options);
    if (obs.registry() != nullptr) service.SetMetrics(obs.registry());
    if (obs.tracer() != nullptr) service.SetTracer(obs.tracer());
    WorkloadGenerator workload(env.graph, workload_params);
    for (const InsertOp& op : workload.Inserts()) {
      (void)service.Insert(op.guid, op.na);
    }

    for (const double failure_fraction : {0.0, 0.05, 0.10, 0.20}) {
      // Failures drawn once per (K, fraction); deterministic seed.
      Rng rng(std::uint64_t(failure_fraction * 1000) * 31 + std::uint64_t(k));
      std::vector<AsId> failed = planned_failures;
      for (AsId as = 0; as < env.graph.num_nodes(); ++as) {
        if (rng.NextBernoulli(failure_fraction)) failed.push_back(as);
      }
      std::sort(failed.begin(), failed.end());
      failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
      service.SetFailedAses(failed);

      SampleSet ok_latency;
      StreamingStats attempts;
      std::uint64_t found = 0, total = 0;
      // Same lookup stream per fraction: regenerate with the same seed.
      WorkloadGenerator lookup_gen(env.graph, workload_params);
      lookup_gen.Inserts();  // align generator state
      for (const LookupOp& op : lookup_gen.Lookups(lookups)) {
        const LookupResult r = service.Lookup(op.guid, op.source);
        ++total;
        attempts.Add(double(r.attempts));
        if (r.found) {
          ++found;
          ok_latency.Add(r.latency_ms);
        }
      }
      table.AddRow(
          {std::to_string(k),
           TextTable::FormatDouble(failure_fraction * 100, 0) + "%",
           TextTable::FormatDouble(100.0 * double(found) / double(total),
                                   2) +
               "%",
           TextTable::FormatDouble(ok_latency.mean()),
           TextTable::FormatDouble(ok_latency.Quantile(0.95)),
           TextTable::FormatDouble(attempts.mean(), 2)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected: availability ~ 100%% * (1 - f^K) plus local-replica "
      "rescues;\nK=5 shrugs off failure rates that cost K=1 a full f of "
      "its lookups\n");
  obs.Finish();
  return 0;
}
