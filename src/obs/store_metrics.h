// Bridges ShardedMappingStore's counters into a MetricsRegistry. Lives in
// obs/ for the same reason as oracle_metrics.h: dmap_obs must not depend on
// dmap_core, so this header is include-only and the core target includes it
// from the consumer side (sim harnesses / bench mains).
//
// Stability split:
//  * "store.entries" — the total stored-entry count. A workload property:
//    identical for every thread AND shard count, so it stays at the default
//    kDeterministic stability and lands in the byte-diffed exports.
//  * "store.shards" / "store.snapshot_rebuilds" — how the store happened to
//    be partitioned and how often a changed shard was published. Both
//    depend on --shards (and, for auto, on the machine), so they are tagged
//    MetricStability::kExecution and excluded from default exports —
//    keeping metrics_summary files byte-identical across shard counts.
#pragma once

#include "core/mapping_store.h"
#include "obs/metrics_registry.h"

namespace dmap {

// Adds the store's lifetime totals to "store.*" counters. Call once, after
// the measured phase — counters accumulate, so contributing the same store
// twice double-counts.
inline void ContributeStoreMetrics(const ShardedMappingStore& store,
                                   MetricsRegistry& registry) {
  const MetricStability kExec = MetricStability::kExecution;
  registry.Add(registry.Counter("store.entries"), store.size(), 0);
  registry.Add(registry.Counter("store.shards", kExec), store.num_shards(),
               0);
  registry.Add(registry.Counter("store.snapshot_rebuilds", kExec),
               store.snapshot_rebuilds(), 0);
}

}  // namespace dmap
