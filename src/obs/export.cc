#include "obs/export.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dmap {
namespace {

// Fixed-width decimal rendering: %.6f is locale-independent and maps equal
// doubles to equal bytes, which the determinism guarantee relies on.
std::string Num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  return buffer;
}

std::string Num(std::uint64_t v) { return std::to_string(v); }

bool Included(MetricStability stability,
              const MetricsExportOptions& options) {
  return options.include_execution ||
         stability == MetricStability::kDeterministic;
}

}  // namespace

std::string MetricsSummaryJson(const MetricsSnapshot& snapshot,
                               const MetricsExportOptions& options) {
  std::string out = "{\n  \"schema\": \"dmap.metrics_summary.v1\",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const CounterSnapshot& c : snapshot.counters) {
    if (!Included(c.stability, options)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + c.name + "\": " + Num(c.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (!Included(h.stability, options)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + h.name + "\": {\n";
    out += "      \"count\": " + Num(h.count) + ",\n";
    out += "      \"sum\": " + Num(h.sum) + ",\n";
    out += "      \"min\": " + Num(h.min) + ",\n";
    out += "      \"max\": " + Num(h.max) + ",\n";
    out += "      \"p50\": " + Num(HistogramQuantile(h, 0.50)) + ",\n";
    out += "      \"p99\": " + Num(HistogramQuantile(h, 0.99)) + ",\n";
    out += "      \"p999\": " + Num(HistogramQuantile(h, 0.999)) + ",\n";
    out += "      \"boundaries\": [";
    for (std::size_t i = 0; i < h.boundaries.size(); ++i) {
      if (i > 0) out += ", ";
      out += Num(h.boundaries[i]);
    }
    out += "],\n      \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += Num(h.buckets[i]);
    }
    out += "]\n    }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsSummaryCsv(const MetricsSnapshot& snapshot,
                              const MetricsExportOptions& options) {
  std::string out = "kind,name,le,count,sum,min,max,p50,p99,p999\n";
  for (const CounterSnapshot& c : snapshot.counters) {
    if (!Included(c.stability, options)) continue;
    out += "counter," + c.name + ",," + Num(c.value) + ",,,,,,\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (!Included(h.stability, options)) continue;
    out += "histogram," + h.name + ",," + Num(h.count) + "," + Num(h.sum) +
           "," + Num(h.min) + "," + Num(h.max) + "," +
           Num(HistogramQuantile(h, 0.50)) + "," +
           Num(HistogramQuantile(h, 0.99)) + "," +
           Num(HistogramQuantile(h, 0.999)) + "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::string le =
          i < h.boundaries.size() ? Num(h.boundaries[i]) : "inf";
      out += "bucket," + h.name + "," + le + "," + Num(h.buckets[i]) +
             ",,,,,,\n";
    }
  }
  return out;
}

std::string OpTraceCsv(const std::vector<ProbeTrace>& traces) {
  // Schema v2: the serving-tier columns queue_delay_ms and admission
  // (served/queued/shed) follow the v1 columns; paths without a serving
  // tier emit the uniform zero-delay "served".
  std::string out =
      "op,guid_fp,querier,found,local_won,latency_ms,queue_delay_ms,"
      "admission,attempts,hash_evaluations,probes\n";
  for (const ProbeTrace& t : traces) {
    out += t.op;
    out += ",";
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx", (unsigned long long)t.guid_fp);
    out += fp;
    // Append piecewise rather than via `"," + std::to_string(...)`: the
    // temporary-free form also sidesteps a GCC 12 -Wrestrict false positive
    // in operator+(const char*, std::string&&) (GCC PR105651).
    out += ',';
    out += std::to_string(t.querier);
    out += t.found ? ",1" : ",0";
    out += t.local_won ? ",1" : ",0";
    out += ',';
    out += Num(t.latency_ms);
    out += ',';
    out += Num(t.queue_delay_ms);
    out += ',';
    out += AdmissionOutcomeName(t.admission);
    out += ',';
    out += std::to_string(t.attempts);
    out += ',';
    out += std::to_string(t.hash_evaluations);
    out += ',';
    for (std::size_t i = 0; i < t.probes.size(); ++i) {
      if (i > 0) out += "|";
      out += std::to_string(t.probes[i].replica);
      out += ':';
      out += char(t.probes[i].outcome);
      out += ':';
      out += Num(t.probes[i].rtt_ms);
    }
    out += "\n";
  }
  return out;
}

namespace {

void WriteFileOrThrow(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out.write(content.data(), std::streamsize(content.size()));
  if (!out) {
    throw std::runtime_error("write to '" + path + "' failed");
  }
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void WriteMetricsSummary(const std::string& path,
                         const MetricsSnapshot& snapshot,
                         const MetricsExportOptions& options) {
  WriteFileOrThrow(path, EndsWith(path, ".json")
                             ? MetricsSummaryJson(snapshot, options)
                             : MetricsSummaryCsv(snapshot, options));
}

void WriteOpTrace(const std::string& path,
                  const std::vector<ProbeTrace>& traces) {
  WriteFileOrThrow(path, OpTraceCsv(traces));
}

ObservabilitySinks::ObservabilitySinks(const SimConfig& sim)
    : metrics_out_(sim.metrics_out), trace_out_(sim.trace_out) {
  if (!metrics_out_.empty()) registry_.emplace();
  if (!trace_out_.empty()) tracer_.emplace(1u, sim.trace_sample);
}

void ObservabilitySinks::Finish() {
  if (registry_.has_value()) {
    WriteMetricsSummary(metrics_out_, registry_->Snapshot());
    std::printf("metrics_summary: %s\n", metrics_out_.c_str());
  }
  if (tracer_.has_value()) {
    const std::vector<ProbeTrace> traces = tracer_->Drain();
    WriteOpTrace(trace_out_, traces);
    std::printf("op_trace: %s (%zu sampled ops)\n", trace_out_.c_str(),
                traces.size());
  }
}

}  // namespace dmap
