// Exporters for the observability layer: a metrics_summary (JSON or CSV,
// chosen by file extension) and an optional op_trace CSV — the split used by
// per-operation accounting tools (one aggregate file to diff/plot, one
// trace file to drill into tail operations).
//
// The metrics_summary is rendered from a MetricsSnapshot with fixed number
// formatting and name-sorted sections, and excludes kExecution metrics by
// default, so two runs over the same workload produce byte-identical files
// regardless of thread count (CI diffs them).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"

namespace dmap {

struct MetricsExportOptions {
  // Include MetricStability::kExecution metrics (cache hit/miss counters
  // etc.). Off by default: they legitimately differ across thread counts
  // and would break byte-level comparisons.
  bool include_execution = false;
};

// JSON object: {"schema": ..., "counters": {...}, "histograms": {...}}.
std::string MetricsSummaryJson(const MetricsSnapshot& snapshot,
                               const MetricsExportOptions& options = {});

// Flat CSV: one `counter` row per counter, one `histogram` row per
// histogram (count/sum/min/max), one `bucket` row per histogram bucket.
std::string MetricsSummaryCsv(const MetricsSnapshot& snapshot,
                              const MetricsExportOptions& options = {});

// One row per trace; probe events serialized "as:outcome:rtt|..." in probe
// order. Input should come from ProbeTracer::Drain() (canonical order).
// Schema v2: adds the serving-tier columns queue_delay_ms and admission
// (served/queued/shed) after latency_ms.
std::string OpTraceCsv(const std::vector<ProbeTrace>& traces);

// Renders `snapshot` as JSON when `path` ends in ".json", CSV otherwise,
// and writes it to `path`. Throws std::runtime_error when the file cannot
// be written.
void WriteMetricsSummary(const std::string& path,
                         const MetricsSnapshot& snapshot,
                         const MetricsExportOptions& options = {});

void WriteOpTrace(const std::string& path,
                  const std::vector<ProbeTrace>& traces);

// The optional observability sinks of one bench or runner invocation, from
// SimConfig's metrics_out / trace_out / trace_sample. registry()/tracer()
// are null when the matching path is empty: no registry or tracer is even
// created, so the measured loops keep their uninstrumented hot path.
class ObservabilitySinks {
 public:
  explicit ObservabilitySinks(const SimConfig& sim);

  MetricsRegistry* registry() {
    return registry_.has_value() ? &*registry_ : nullptr;
  }
  ProbeTracer* tracer() { return tracer_.has_value() ? &*tracer_ : nullptr; }

  // Writes the requested files (deterministic exports only) and prints
  // where they went. Call exactly once, after the measured phase.
  void Finish();

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::optional<MetricsRegistry> registry_;
  std::optional<ProbeTracer> tracer_;
};

}  // namespace dmap
