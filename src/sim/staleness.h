// Temporal mobility-staleness simulation (Section III-D-2). A binding
// update takes one max-replica-RTT to land, so a query issued inside that
// window receives the previous NA. The paper's prescription: "the querying
// node should mark the mapping as obsolete, and keep checking until it
// receives an updated one." This experiment runs hosts with Poisson
// mobility and correspondents with Poisson queries on the event kernel and
// measures how often first answers are stale and how long the
// keep-checking loop takes to obtain a fresh binding.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "sim/environment.h"

namespace dmap {

class MetricsRegistry;
class ProbeTracer;

struct StalenessConfig {
  std::uint32_t num_hosts = 500;
  // Mean time between moves per host (exponential). The paper motivates
  // vehicular scenarios where attachment changes many times per call.
  double mean_move_interval_s = 60.0;
  double duration_s = 600.0;
  int k = 5;
  // Optional observability sinks (src/obs/). The staleness simulation runs
  // on the single-threaded event kernel, so only worker slab 0 is used.
  MetricsRegistry* metrics = nullptr;
  ProbeTracer* tracer = nullptr;
};

struct StalenessReport {
  std::uint64_t lookups = 0;             // first-attempt queries
  std::uint64_t stale_first_answers = 0; // answered with the previous NA
  std::uint64_t moves = 0;
  double stale_fraction = 0;
  // For initially stale queries: total time from first query to a fresh
  // binding, and the number of rechecks it took.
  SampleSet time_to_fresh_ms;
  StreamingStats rechecks;
};

StalenessReport RunStalenessExperiment(SimEnvironment& env,
                                       const StalenessConfig& config);

}  // namespace dmap
