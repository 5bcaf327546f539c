// Bridges PathOracle's cache statistics into a MetricsRegistry. Lives in
// obs/ (not topo/) because the dependency points the other way: dmap_obs
// links dmap_topo.
//
// Cache hit/miss counts are tagged MetricStability::kExecution: which
// queries hit the LRU depends on the dynamic work-chunk-to-worker
// assignment, so two runs with different thread counts (or even the same
// count, under scheduling jitter) legitimately disagree. Exporters exclude
// kExecution metrics by default, keeping metrics_summary files byte-
// identical across thread counts.
#pragma once

#include "obs/metrics_registry.h"
#include "topo/hub_labels.h"
#include "topo/shortest_path.h"

namespace dmap {

// Adds the oracle's lifetime totals to "oracle.*" counters. Call once,
// after the measured phase — counters accumulate, so contributing the same
// oracle twice double-counts.
inline void ContributeOracleMetrics(const PathOracle& oracle,
                                    MetricsRegistry& registry) {
  const MetricStability kExec = MetricStability::kExecution;
  registry.Add(registry.Counter("oracle.latency_cache_hits", kExec),
               oracle.latency_cache_hits(), 0);
  registry.Add(registry.Counter("oracle.latency_cache_misses", kExec),
               oracle.latency_cache_misses(), 0);
  registry.Add(registry.Counter("oracle.hops_cache_hits", kExec),
               oracle.hops_cache_hits(), 0);
  registry.Add(registry.Counter("oracle.hops_cache_misses", kExec),
               oracle.hops_cache_misses(), 0);
  registry.Add(registry.Counter("oracle.dijkstra_runs", kExec),
               oracle.dijkstra_runs(), 0);
  registry.Add(registry.Counter("oracle.bfs_runs", kExec), oracle.bfs_runs(),
               0);
  // Hub-label backend statistics. Also kExecution: the label counters are 0
  // under the LRU backend and positive under hub, and the two backends must
  // export byte-identical default summaries (their *answers* are
  // bit-identical; only the engine differs).
  registry.Add(registry.Counter("oracle.label_queries", kExec),
               oracle.label_queries(), 0);
  if (const HubLabels* labels = oracle.hub_labels()) {
    const HubLabels::BuildStats& stats = labels->stats();
    registry.Add(registry.Counter("oracle.label_entries_latency", kExec),
                 stats.latency_entries, 0);
    registry.Add(registry.Counter("oracle.label_max_latency_label", kExec),
                 stats.max_latency_label, 0);
    registry.Observe(
        registry.Histogram("oracle.label_build_ms",
                           MetricsRegistry::LatencyBoundariesMs(), kExec),
        stats.build_ms, 0);
  }
}

}  // namespace dmap
