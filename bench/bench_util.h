// Shared helpers for the experiment drivers: --scale parsing, uniform
// printing of summaries and CDF series, and the observability flags
// (--metrics-out / --trace-out / --trace-sample, DESIGN.md section 6).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/config.h"
#include "common/stats.h"
#include "core/resolver_cache.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "serve/serving_config.h"
#include "sim/metrics.h"

namespace dmap::bench {

struct BenchOptions {
  double scale = 1.0;
  // Worker threads for the parallel experiment loops; 0 = one per hardware
  // thread. Results are bit-identical for any value (DESIGN.md "Threading
  // model"); 1 forces the serial code path.
  unsigned threads = 0;
  // Mapping-store shards (DMapOptions::store_shards); 0 = auto. Results
  // are bit-identical for any value; only serving throughput differs.
  int shards = 0;
  // Observability sinks; empty = off (no registry/tracer is even created,
  // so the measured loops keep their uninstrumented hot path).
  std::string metrics_out;  // metrics_summary file; ".json" or CSV
  std::string trace_out;    // per-lookup op_trace CSV
  // Trace 1 in N lookups, sampled deterministically by GUID fingerprint
  // (thread-count independent). 1 = every lookup.
  std::uint64_t trace_sample = 1;
  // Declarative fault plan (fault/fault_plan.h file format); empty = no
  // injected faults. The seed drives every per-message fate; identical
  // (plan, seed) pairs replay the identical chaos run.
  std::string fault_plan;
  std::uint64_t fault_seed = 0;
  // Serving-tier capacity model: a configs/*.serving file path or an inline
  // "k=v,..." string (ServingConfig::ParseArg — passing the flag implies
  // enabled=true unless the config says otherwise). Empty = disabled, the
  // infinite-capacity behaviour. Parse with ParsedServing().
  std::string serving;
  // Quorum/consistency knobs for the wire-protocol benches (chaos_sweep,
  // fig9_consistency); see ProtocolNetworkOptions for the semantics.
  // -1 = flag not given: each bench applies its own default (chaos_sweep
  // uses the network defaults; fig9_consistency runs its built-in sweep
  // of {W, R, anti-entropy} legs instead of one custom leg).
  int write_quorum = -1;   // 0 = majority, 1 = legacy fire-and-wait-all
  int read_quorum = -1;    // 1 = sequential paper probing, >1 = fan-out
  int anti_entropy = -1;   // GUIDs repaired per background round, 0 = off
  // Mobility fast path (fig10_mobility; DESIGN.md section 15).
  // --batch-updates caps the GUID moves per BatchUpdate wave; 0 (flag not
  // given) lets the bench use its built-in batch-size sweep.
  int batch_updates = 0;
  // --cache enables the resolver-side mapping cache: an inline "k=v,..."
  // string (CacheConfig::ParseArg — capacity, ttl_ms, shards,
  // invalidate_on_update; a bare number is shorthand for the capacity).
  // Empty = disabled, the full-probe behaviour. Parse with ParsedCache().
  std::string cache;
};

// Accepts both `--flag=value` and `--flag value` forms.
inline const char* BenchArgValue(const char* arg, const char* name,
                                 int argc, char** argv, int* i) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* value = BenchArgValue(arg, "--scale", argc, argv, &i)) {
      // strtod with end-pointer validation; NaN and inf must never reach
      // Scaled()'s integer cast.
      char* end = nullptr;
      options.scale = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(options.scale) ||
          options.scale <= 0) {
        std::fprintf(stderr, "bad --scale value: %s\n", value);
        std::exit(2);
      }
    } else if (const char* value =
                   BenchArgValue(arg, "--threads", argc, argv, &i)) {
      // strtol with end-pointer validation: atoi would map garbage to 0,
      // which is a legal value (all cores) — it must be rejected instead.
      char* end = nullptr;
      const long threads = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || threads < 0 ||
          threads > long(SimConfig::kMaxThreads)) {
        std::fprintf(stderr, "bad --threads value: %s\n", value);
        std::exit(2);
      }
      options.threads = unsigned(threads);
    } else if (const char* value =
                   BenchArgValue(arg, "--shards", argc, argv, &i)) {
      char* end = nullptr;
      const long shards = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || shards < 0 ||
          shards > SimConfig::kMaxShards) {
        std::fprintf(stderr, "bad --shards value: %s\n", value);
        std::exit(2);
      }
      options.shards = int(shards);
    } else if (const char* value =
                   BenchArgValue(arg, "--metrics-out", argc, argv, &i)) {
      options.metrics_out = value;
    } else if (const char* value =
                   BenchArgValue(arg, "--trace-out", argc, argv, &i)) {
      options.trace_out = value;
    } else if (const char* value =
                   BenchArgValue(arg, "--trace-sample", argc, argv, &i)) {
      char* end = nullptr;
      const long long n = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || n < 1) {
        std::fprintf(stderr, "bad --trace-sample value: %s\n", value);
        std::exit(2);
      }
      options.trace_sample = std::uint64_t(n);
    } else if (const char* value =
                   BenchArgValue(arg, "--fault-plan", argc, argv, &i)) {
      options.fault_plan = value;
    } else if (const char* value =
                   BenchArgValue(arg, "--serving", argc, argv, &i)) {
      options.serving = value;
      if (options.serving.empty()) {
        std::fprintf(stderr, "bad --serving value: must name a file or an "
                             "inline k=v,... config\n");
        std::exit(2);
      }
    } else if (const char* value =
                   BenchArgValue(arg, "--write-quorum", argc, argv, &i)) {
      char* end = nullptr;
      const long w = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || w < 0 || w > 256) {
        std::fprintf(stderr, "bad --write-quorum value: %s\n", value);
        std::exit(2);
      }
      options.write_quorum = int(w);
    } else if (const char* value =
                   BenchArgValue(arg, "--read-quorum", argc, argv, &i)) {
      char* end = nullptr;
      const long r = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || r < 1 || r > 256) {
        std::fprintf(stderr, "bad --read-quorum value: %s\n", value);
        std::exit(2);
      }
      options.read_quorum = int(r);
    } else if (const char* value =
                   BenchArgValue(arg, "--anti-entropy", argc, argv, &i)) {
      char* end = nullptr;
      const long budget = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || budget < 0 ||
          budget > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "bad --anti-entropy value: %s\n", value);
        std::exit(2);
      }
      options.anti_entropy = int(budget);
    } else if (const char* value =
                   BenchArgValue(arg, "--batch-updates", argc, argv, &i)) {
      char* end = nullptr;
      const long batch = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || batch < 1 || batch > 65535) {
        std::fprintf(stderr, "bad --batch-updates value: %s\n", value);
        std::exit(2);
      }
      options.batch_updates = int(batch);
    } else if (const char* value =
                   BenchArgValue(arg, "--cache", argc, argv, &i)) {
      options.cache = value;
      if (options.cache.empty()) {
        std::fprintf(stderr, "bad --cache value: must be a capacity or an "
                             "inline k=v,... config\n");
        std::exit(2);
      }
    } else if (const char* value =
                   BenchArgValue(arg, "--fault-seed", argc, argv, &i)) {
      // strtoull wraps "-1" to 2^64-1 and saturates on overflow.
      char* end = nullptr;
      errno = 0;
      const unsigned long long seed = std::strtoull(value, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
          *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "bad --fault-seed value: %s\n", value);
        std::exit(2);
      }
      options.fault_seed = std::uint64_t(seed);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale=<f>] [--threads=<n>] [--shards=<n>]\n"
          "          [--metrics-out=<file>] [--trace-out=<file>]\n"
          "          [--trace-sample=<N>] [--fault-plan=<file>]\n"
          "          [--fault-seed=<n>]\n"
          "          [--serving=<file|k=v,...>] [--write-quorum=<W>]\n"
          "          [--read-quorum=<R>] [--anti-entropy=<budget>]\n"
          "          [--batch-updates=<B>] [--cache=<capacity|k=v,...>]\n"
          "  --shards        mapping-store shards (default 0 = auto;\n"
          "                  identical results for any value)\n"
          "  --metrics-out   write a metrics_summary (.json, else CSV)\n"
          "  --trace-out     write a per-lookup op_trace CSV\n"
          "  --trace-sample  trace 1 in N lookups (default 1 = all)\n"
          "  --fault-plan    declarative fault plan file (configs/*.plan)\n"
          "  --fault-seed    seed for per-message fault fates (default 0)\n"
          "  --serving       serving-tier capacity model: configs/*.serving\n"
          "                  file or inline k=v,... (default off)\n"
          "  --write-quorum  acks before an insert completes: 0 = majority,\n"
          "                  1 = legacy fire-and-wait-all (wire benches)\n"
          "  --read-quorum   replicas a lookup must hear from; 1 = the\n"
          "                  paper's sequential probing, >1 = fan-out\n"
          "  --anti-entropy  GUIDs repaired per background round (0 = off)\n"
          "  --batch-updates GUID moves per batched handoff wave (mobility\n"
          "                  benches; default: the built-in size sweep)\n"
          "  --cache         resolver-side mapping cache: a capacity or\n"
          "                  inline k=v,... (capacity, ttl_ms, shards,\n"
          "                  invalidate_on_update; default off)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      std::exit(2);
    }
  }
  return options;
}

// Owns the optional observability sinks of one bench run. Construct from
// the parsed options, hand registry()/tracer() to the experiment config
// (null when the corresponding flag is off — the uninstrumented path), and
// call Finish() once after the measured phase to write the files.
class BenchObservability {
 public:
  explicit BenchObservability(const BenchOptions& options)
      : options_(options) {
    if (!options.metrics_out.empty()) registry_.emplace();
    if (!options.trace_out.empty()) {
      tracer_.emplace(1u, options.trace_sample);
    }
  }

  MetricsRegistry* registry() {
    return registry_.has_value() ? &*registry_ : nullptr;
  }
  ProbeTracer* tracer() { return tracer_.has_value() ? &*tracer_ : nullptr; }

  // Writes the requested files (deterministic exports only by default) and
  // prints where they went. Call exactly once.
  void Finish() {
    if (registry_.has_value()) {
      WriteMetricsSummary(options_.metrics_out, registry_->Snapshot(),
                          MetricsExportOptions{});
      std::printf("metrics_summary: %s\n", options_.metrics_out.c_str());
    }
    if (tracer_.has_value()) {
      const std::vector<ProbeTrace> traces = tracer_->Drain();
      WriteOpTrace(options_.trace_out, traces);
      std::printf("op_trace: %s (%zu sampled ops)\n",
                  options_.trace_out.c_str(), traces.size());
    }
  }

 private:
  BenchOptions options_;
  std::optional<MetricsRegistry> registry_;
  std::optional<ProbeTracer> tracer_;
};

// The --serving flag as a validated ServingConfig; a missing flag yields
// the disabled default (infinite capacity). Exits with the parser's
// field-naming message on a bad file or inline string, like DMapOptions
// validation would.
inline ServingConfig ParsedServing(const BenchOptions& options) {
  if (options.serving.empty()) return ServingConfig{};
  try {
    return ServingConfig::ParseArg(options.serving);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --serving value: %s\n", e.what());
    std::exit(2);
  }
}

// The --cache flag as a validated CacheConfig; a missing flag yields the
// disabled default (capacity 0, the full-probe behaviour). Exits with the
// parser's field-naming message on a bad inline string.
inline CacheConfig ParsedCache(const BenchOptions& options) {
  if (options.cache.empty()) return CacheConfig{};
  try {
    CacheConfig config = CacheConfig::ParseArg(options.cache);
    config.Validate();
    return config;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --cache value: %s\n", e.what());
    std::exit(2);
  }
}

inline std::uint64_t Scaled(std::uint64_t base, double scale,
                            std::uint64_t minimum = 1) {
  const auto scaled = std::uint64_t(double(base) * scale);
  return scaled < minimum ? minimum : scaled;
}

inline std::uint32_t ScaledU32(std::uint32_t base, double scale,
                               std::uint32_t minimum = 1) {
  return std::uint32_t(Scaled(base, scale, minimum));
}

inline void PrintSummaryRow(TextTable& table, const std::string& label,
                            const SampleSet& samples) {
  const ResponseTimeSummary s = Summarize(samples);
  table.AddRow({label, std::to_string(s.count),
                TextTable::FormatDouble(s.mean_ms),
                TextTable::FormatDouble(s.median_ms),
                TextTable::FormatDouble(s.p95_ms)});
}

// CDF series on a log-spaced x axis, matching the paper's response-time
// plots (Figures 4-5).
inline void PrintCdf(const std::string& label, const SampleSet& samples,
                     int points = 16, const char* unit = "ms") {
  std::printf("CDF %s:\n", label.c_str());
  for (const auto& [x, fraction] : samples.CdfLogSpaced(points)) {
    std::printf("  %10.2f %s  %6.4f\n", x, unit, fraction);
  }
}

// Linear-axis variant (Figure 6's NLR CDF).
inline void PrintCdfLinear(const std::string& label, const SampleSet& samples,
                           int points = 16, const char* unit = "") {
  std::printf("CDF %s:\n", label.c_str());
  for (const auto& [x, fraction] : samples.CdfLinearSpaced(points)) {
    std::printf("  %10.3f %s  %6.4f\n", x, unit, fraction);
  }
}

}  // namespace dmap::bench
