// Mobility staleness over time (Section III-D-2, quantified): hosts move
// with exponential inter-move times; binding updates land one
// max-replica-RTT later; queries inside that window get the previous NA
// and recover via the paper's "mark obsolete and keep checking" loop.
//
// Expected shape: the stale-first-answer fraction ~ update_latency /
// inter-move interval (tiny even for vehicular mobility), and the
// keep-checking loop converges within a few 50 ms rechecks — which is why
// the paper can treat staleness as a transient rather than a protocol
// failure.
#include <cstdio>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "sim/staleness.h"

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  bench::CheckArgs(args);

  std::printf("=== Ablation: mobility staleness (Sec III-D-2) ===\n");
  std::printf("scale=%.3f threads=%u\n\n", scale,
              ThreadPool::Resolve(sim.threads));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(2000, scale, 300)));

  ObservabilitySinks obs(sim);
  TextTable table({"mean move interval", "moves", "lookups", "stale first",
                   "stale %", "rechecks (mean)", "t. fresh p95 (ms)"});
  for (const double interval_s : {300.0, 60.0, 20.0, 5.0}) {
    StalenessConfig config;
    config.num_hosts = bench::ScaledU32(600, scale, 100);
    config.mean_move_interval_s = interval_s;
    config.duration_s = 400.0;
    config.metrics = obs.registry();
    config.tracer = obs.tracer();
    const StalenessReport r = RunStalenessExperiment(env, config);
    table.AddRow(
        {TextTable::FormatDouble(interval_s, 0) + " s",
         std::to_string(r.moves), std::to_string(r.lookups),
         std::to_string(r.stale_first_answers),
         TextTable::FormatDouble(100 * r.stale_fraction, 3) + "%",
         r.rechecks.count() == 0
             ? "-"
             : TextTable::FormatDouble(r.rechecks.mean(), 2),
         r.time_to_fresh_ms.count() == 0
             ? "-"
             : TextTable::FormatDouble(r.time_to_fresh_ms.Quantile(0.95))});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "stale windows last one update RTT per move; even at 5 s inter-move\n"
      "times the keep-checking loop restores a fresh binding within a few\n"
      "rechecks — Section III-D-2's transient, quantified\n");
  obs.Finish();
  return 0;
}
