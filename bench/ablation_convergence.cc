// Transient BGP effects (the paper's Section VII future work: "our future
// work plan also includes incorporating the transient effects of BGP
// updates"). During convergence, gateways disagree: some already see the
// post-churn table, others still hold the old one, and the mappings
// themselves are repaired (re-homed) only after the withdrawing /
// announcing ASs run the Section III-D-1 protocol.
//
// This bench sweeps the convergence level c: a fraction c of queriers use
// the new BGP view, the rest the old one, in two repair states — before the
// repair protocol has run (mappings still placed per the old table) and
// after it. Expected shape: mid-convergence is the worst point for
// new-view queriers pre-repair (they chase orphans), and repair flips the
// penalty onto the stragglers still using the old view.
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "bgp/churn.h"
#include "core/dmap_service.h"
#include "sim/experiments.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  bench::CheckArgs(args);

  std::printf("=== Ablation: response time during BGP convergence ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(8000, scale, 300)));
  const PrefixTable old_view = env.table;  // snapshot before churn

  DMapOptions service_options;
  service_options.k = 5;
  service_options.local_replica = false;
  service_options.measure_update_latency = false;
  DMapService service(env.graph, env.table, service_options);
  ObservabilitySinks obs(sim);
  if (obs.registry() != nullptr) service.SetMetrics(obs.registry());
  if (obs.tracer() != nullptr) service.SetTracer(obs.tracer());

  WorkloadParams params;
  params.num_guids = bench::Scaled(20'000, scale, 1000);
  WorkloadGenerator workload(env.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    (void)service.Insert(op.guid, op.na);
  }

  // 5% of the announced space churns (the Figure 5 operating point).
  Rng rng(7);
  ChurnParams churn;
  churn.withdraw_space_fraction = 0.05;
  churn.announce_fraction = 0.025;
  churn.num_ases = env.graph.num_nodes();
  ApplyChurn(env.table, SampleChurn(old_view, churn, rng));
  // env.table is now the new view; `service` resolves against it.

  const std::uint64_t lookups = bench::Scaled(60'000, scale, 5000);
  TextTable table({"converged", "repair", "mean (ms)", "p95 (ms)",
                   "extra round trips"});

  for (const bool repaired : {false, true}) {
    if (repaired) {
      for (std::uint64_t i = 0; i < params.num_guids; ++i) {
        service.Rehome(workload.GuidAt(i));
      }
    }
    for (const double converged : {0.0, 0.25, 0.50, 0.75, 1.0}) {
      Rng coin(std::uint64_t(converged * 100) + (repaired ? 1000 : 0));
      SampleSet latencies;
      std::uint64_t retries = 0;
      WorkloadGenerator lookup_gen(env.graph, params);
      lookup_gen.Inserts();  // align generator state with placement
      for (const LookupOp& op : lookup_gen.Lookups(lookups)) {
        const bool uses_new_view = coin.NextBernoulli(converged);
        const LookupResult r = service.LookupWithView(
            op.guid, op.source, uses_new_view ? env.table : old_view);
        if (!r.found) continue;
        latencies.Add(r.latency_ms);
        retries += std::uint64_t(r.attempts - 1);
      }
      table.AddRow({TextTable::FormatDouble(converged * 100, 0) + "%",
                    repaired ? "after" : "before",
                    TextTable::FormatDouble(latencies.mean()),
                    TextTable::FormatDouble(latencies.Quantile(0.95)),
                    std::to_string(retries)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "before repair, converged queriers chase orphaned mappings; after\n"
      "the Section III-D-1 repair the penalty moves to unconverged ones\n");
  obs.Finish();
  return 0;
}
