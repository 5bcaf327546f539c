// Offered-load experiment (Figure 8): goodput and latency quantiles of the
// lookup path as the open-loop arrival rate sweeps past the serving tier's
// capacity. Each sweep point replays the same placed mapping state under a
// Poisson arrival stream (workload/arrivals.h) through the event-driven
// executor with a ServingTier installed; overload shows up as sheds →
// timeouts → fall-through, and ultimately as goodput falling below the
// offered rate. The measured saturation point is cross-checked against the
// analytic M/M/1 model (analysis/queueing.h) of the hottest server.
//
// Determinism: points are the parallel unit. Each point owns a serial
// Simulator + EventDrivenLookup + ServingTier seeded purely by the point
// index, and per-point results are merged in point order — so the sweep is
// bit-identical for every `threads` value (tools/determinism_table.sh
// byte-diffs the exports at --threads 1 vs 4).
#pragma once

#include <vector>

#include "analysis/queueing.h"
#include "sim/experiments.h"
#include "workload/arrivals.h"

namespace dmap {

struct OfferedLoadConfig {
  // Service/topology/observability knobs, including `base.serving` (the
  // capacity model — RunOfferedLoadSweep requires serving.enabled; an
  // infinite-capacity offered-load sweep has no saturation to find).
  ResponseTimeConfig base;
  // Arrival-process template. `base_rate_per_s` is overridden by each sweep
  // point; diurnal/burst modulation applies on top of it, so "offered load"
  // below always means the pre-modulation base rate.
  ArrivalParams arrivals;
  // The sweep: offered load in lookups/second, ascending. The saturation
  // estimate uses the first (lightest) point's measured hot-spot share.
  std::vector<double> offered_rates_per_s;
};

// One sweep point, fully merged (deterministic for any thread count).
struct OfferedLoadPoint {
  double offered_per_s = 0.0;  // nominal base arrival rate of this point

  // Client-side outcome counts over the horizon.
  std::uint64_t lookups = 0;  // arrivals generated (Poisson, ~offered*horizon)
  std::uint64_t found = 0;    // resolved (goodput numerator)
  std::uint64_t failed = 0;   // exhausted every replica (shed/timeout/miss)
  double goodput_per_s = 0.0;  // found / horizon_s

  // Latency quantiles of *successful* lookups, extracted from the per-point
  // obs histogram via HistogramQuantile (bucket interpolation).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_queue_delay_ms = 0.0;  // over successful lookups

  // Serving-tier accounting for this point (disjoint outcome counts:
  // arrivals = served + queued + shed_tokens + shed_queue).
  std::uint64_t tier_arrivals = 0;
  std::uint64_t tier_served = 0;  // started service immediately
  std::uint64_t tier_queued = 0;  // admitted after a queue wait
  std::uint64_t tier_shed_tokens = 0;
  std::uint64_t tier_shed_queue = 0;
  std::uint64_t tier_shed = 0;  // shed_tokens + shed_queue

  // Hot-spot view: the busiest server AS, its share of tier arrivals, and
  // the analytic M/M/1 queue at that server under this point's measured
  // arrival rate (service rate = the tier's effective per-AS capacity).
  AsId hottest_as = kInvalidAs;
  std::uint64_t hottest_arrivals = 0;
  double hot_share = 0.0;
  MM1Stats hottest_mm1;
};

struct OfferedLoadResult {
  std::vector<OfferedLoadPoint> points;  // in offered_rates_per_s order

  // Analytic saturation: the offered load at which the hottest server's
  // arrival rate reaches the effective per-AS service capacity,
  // mu_eff / hot_share, using the first point's measured share (the
  // lightest point — fall-through retries inflate the share once the tier
  // saturates). 0 when the share could not be measured.
  double analytic_saturation_per_s = 0.0;
  // Measured knee: the first offered rate whose goodput fell below 90% of
  // the offered load. 0 when no point saturated.
  double measured_knee_per_s = 0.0;
};

// Effective per-AS service capacity of `config` in requests/second:
// concurrency * service_rate, additionally capped by the token-bucket
// refill rate when that admission policy is active with a nonzero rate.
double EffectiveServiceRatePerS(const ServingConfig& config);

// Runs the sweep. Placement (service build + mapping load) happens once;
// each point replays lookups against the same read snapshots. Throws
// std::invalid_argument if config.base.serving is disabled or invalid.
OfferedLoadResult RunOfferedLoadSweep(SimEnvironment& env,
                                      const OfferedLoadConfig& config);

}  // namespace dmap
