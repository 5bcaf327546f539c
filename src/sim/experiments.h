// Experiment harnesses: one function per paper table/figure, each returning
// raw data for the bench binaries to print (see DESIGN.md section 4 for the
// experiment index).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dmap_service.h"
#include "serve/serving_config.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "workload/workload.h"

namespace dmap {

// ---- Figure 4 / Table I: query response time CDF vs K -------------------
//
// All lookup/insert measurement loops below are partitioned by source AS
// (or GUID range) across a ThreadPool and merged in partition order, so
// every result is bit-identical for any `threads` value — `threads = 1`
// reproduces the serial run exactly (see DESIGN.md "Threading model").

struct ResponseTimeConfig {
  int k = 5;
  WorkloadParams workload;
  bool local_replica = true;
  ReplicaSelection selection = ReplicaSelection::kLowestRtt;
  std::uint64_t hash_seed = 0x5eedf00dULL;
  // DMapOptions::write_quorum for the load/measurement service: 0 =
  // majority, 1 = the legacy fire-and-wait-all discipline. Lookup-only
  // sweeps are bit-identical for every value (inserts are unmeasured);
  // the knob exists so the bench drivers can pin the legacy mode for the
  // pre-quorum golden byte-diffs.
  int write_quorum = 0;
  // Worker threads for the measurement loop; 0 = one per hardware thread
  // (or $DMAP_THREADS). Results do not depend on this value.
  unsigned threads = 0;
  // Mapping-store shards (DMapOptions::store_shards); 0 = auto. Like
  // `threads`, a pure execution knob: results are bit-identical for any
  // value — asserted by tests and the CI --shards byte-diff job.
  int shards = 0;

  // Mapping-server capacity model (src/serve/). Consulted only by the
  // executors that play messages out in time — the event-driven path and
  // the offered-load harness; the closed-form sweeps ignore it (they have
  // no arrival process, so a queue is meaningless there). Disabled by
  // default: every harness is bit-identical to the pre-serving-tier
  // behaviour when `serving.enabled` is false.
  ServingConfig serving;

  // Optional observability sinks (src/obs/); both must outlive the call.
  // When set, the harness sizes them for its worker count, meters the
  // service (plus Algorithm 1), and contributes the latency oracle's cache
  // statistics after the measured phase. Deterministic metrics — and hence
  // the default metrics_summary export — are bit-identical for every
  // `threads` value; only kExecution-tagged cache stats vary.
  MetricsRegistry* metrics = nullptr;
  ProbeTracer* tracer = nullptr;
};

SampleSet RunResponseTimeExperiment(SimEnvironment& env,
                                    const ResponseTimeConfig& config);

// One-pass sweep over several K values. Because h_1..h_K is a prefix of
// h_1..h_{K'} for K < K' (same hash seed), a single placement with
// K = max(ks) yields every curve: the K-replica lookup latency is the best
// RTT among the first K replicas (plus the local-replica race), so one
// run replaces |ks| independent ones. Each lookup takes the GUID's stored
// resolutions (DMapService::ReplicaResolutions) and prices the k_max round
// trips with one PathOracle::RttsMs call. Keys of the result are the
// requested K values.
std::vector<std::pair<int, SampleSet>> RunResponseTimeSweep(
    SimEnvironment& env, const std::vector<int>& ks,
    const ResponseTimeConfig& config);

// ---- Figure 5: response time under BGP churn -----------------------------

struct ChurnExperimentConfig {
  ResponseTimeConfig base;
  std::uint64_t churn_seed = 99;
};

// One-pass sweep over several churn fractions: one service/placement, one
// stale view per fraction, lookups iterated once so the latency oracle's
// per-source cache is shared across fractions.
std::vector<std::pair<double, SampleSet>> RunChurnSweep(
    SimEnvironment& env, const std::vector<double>& churn_fractions,
    const ChurnExperimentConfig& config);

// ---- Figure 6: storage load balance (Normalized Load Ratio) --------------

struct LoadBalanceConfig {
  int k = 5;
  int max_hashes = 10;
  std::uint64_t num_guids = 1'000'000;
  std::uint64_t hash_seed = 0x5eedf00dULL;
  std::uint64_t guid_seed = 11;
  // Worker threads for the GUID-range-partitioned resolve pass; 0 = one
  // per hardware thread. Results do not depend on this value.
  unsigned threads = 0;

  // Optional metrics sink; must outlive the call. Meters Algorithm 1
  // ("algo1.*": hash evaluations, rehash depth, deputy fall-throughs).
  MetricsRegistry* metrics = nullptr;
};

struct LoadBalanceResult {
  SampleSet nlr;                  // one sample per announcing AS
  std::uint64_t deputy_fallbacks = 0;  // resolutions past all M hashes
  std::uint64_t total_hash_evals = 0;
};

LoadBalanceResult RunLoadBalanceExperiment(const SimEnvironment& env,
                                           const LoadBalanceConfig& config);

// ---- Extension: DMap vs the related-work baselines -----------------------

struct BaselineComparisonRow {
  std::string scheme;
  ResponseTimeSummary lookup;
  ResponseTimeSummary update;
};

std::vector<BaselineComparisonRow> RunBaselineComparison(
    SimEnvironment& env, const ResponseTimeConfig& config,
    std::uint64_t num_moves);

}  // namespace dmap
