// dmapbench: the benchmark every performance claim in this repository is
// measured with. See README.md for the workloads, the metric dictionary and
// the layer -> end-to-end map.
//
//   dmapbench --workload=<name> --seed=<n> [--size=full|smoke]
//             [--seconds=<n>] [--threads=<n>] [--trace=<spans.json>]
//             [--out=<result.json>]
//
// Prints one `name value unit` line per metric and writes the same metrics
// as JSON to --out, each marked deterministic or not; directions and
// regression bounds live in BENCHMARK.json alone. Without --trace it
// reports the end-to-end metrics of
// a timed run: setup_s is the median of three set-ups, the measured phase
// is fixed work split into windows. With --trace it reports the per-layer
// metrics of a traced run of the same workload and seed, and writes its
// spans to the given file. Exits 1 when a correctness check fails, 2 on a
// usage error. With no arguments it runs every workload at smoke size,
// adds the thread-count and executor cross-checks, and exits 0 when all
// pass.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "dmapbench.h"

namespace dmapbench {
namespace {

constexpr int kSetupReps = 3;

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::size_t(std::ceil(q * double(values.size())));
  const std::size_t index =
      std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(), values.begin() + long(index), values.end());
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s) {
  std::vector<double> op_us;
  op_us.reserve(pass.windows.size());
  for (const Window& w : pass.windows) {
    if (w.ops > 0) op_us.push_back(double(w.ns) / double(w.ops) / 1000.0);
  }
  std::vector<double> lookup_vms, update_vms;
  std::uint64_t lookups = 0, failed = 0, stale = 0;
  for (const OpOutcome& o : pass.ops) {
    const bool ok = o.flags & kFound;
    if (!ok) ++failed;
    if (o.kind == kLookup) {
      ++lookups;
      if (o.flags & kStale) ++stale;
      if (ok) lookup_vms.push_back(o.vms);
    } else if (ok) {
      update_vms.push_back(o.vms);
    }
  }
  const double records = double(std::max<std::size_t>(1, pass.ops.size()));
  const double reads = double(std::max<std::uint64_t>(1, lookups));
  const double wall = pass.wall_s > 0 ? pass.wall_s : 1e-9;
  constexpr bool kModel = true;  // deterministic
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", double(pass.lookups + pass.updates) / wall, "ops/s"},
      {"lookups_per_s", double(pass.lookups) / wall, "ops/s"},
      {"updates_per_s", double(pass.updates) / wall, "moves/s"},
      {"op_us_p50", Quantile(op_us, 0.50), "us"},
      {"op_us_p99", Quantile(op_us, 0.99), "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"lookup_vms_p50", Quantile(lookup_vms, 0.50), "sim_ms", kModel},
      {"lookup_vms_p99", Quantile(lookup_vms, 0.99), "sim_ms", kModel},
      {"update_vms_p50", Quantile(update_vms, 0.50), "sim_ms", kModel},
      {"msgs_per_op", double(pass.messages) / records, "msgs", kModel},
      {"bytes_per_op", double(pass.bytes) / records, "B", kModel},
      {"failed_frac", double(failed) / records, "ratio", kModel},
      {"stale_read_frac", double(stale) / reads, "ratio", kModel},
      // The last two as shares that are never 0, for runners that judge a
      // metric relative to its median.
      {"served_frac", 1.0 - double(failed) / records, "ratio", kModel},
      {"fresh_read_frac", 1.0 - double(stale) / reads, "ratio", kModel},
  };
}

struct Outcome {
  std::vector<Metric> metrics;  // end-to-end (timed run)
  std::vector<Metric> layers;   // per-layer (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // operations that failed a correctness check
  std::vector<std::string> failures;
};

void GateViolations(const PassResult& pass, Outcome& outcome) {
  outcome.failed += pass.violations;
  if (pass.violations > 0) {
    outcome.failures.push_back(std::to_string(pass.violations) +
                               " correctness violations; first: " +
                               pass.first_violation);
  }
  if (pass.ops.empty() || pass.windows.empty()) {
    outcome.failures.push_back("the measured phase ran no operations");
  }
}

// The timed run: three set-ups (each torn down before the next starts, so
// peak RSS holds one), then the measured phase on the last.
Outcome RunTimed(const RunConfig& config) {
  Outcome outcome;
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < (config.smoke ? 1 : kSetupReps); ++r) {
    workload.reset();
    const std::int64_t t0 = NowNs();
    workload = MakeWorkload(config);
    workload->Setup();
    setups.push_back(double(NowNs() - t0) * 1e-9);
  }
  const PassResult pass = workload->Run(nullptr);
  GateViolations(pass, outcome);
  workload->Verify(outcome.failures);
  outcome.metrics = EndToEnd(pass, Median(setups));
  outcome.attempted = pass.lookups + pass.updates;
  return outcome;
}

// The traced run: an untraced reference pass, then the same workload and
// seed set up afresh and run with every top-level call timed, then the
// replay legs.
Outcome RunTraced(const RunConfig& config, const std::string& spans_path) {
  Outcome outcome;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  workload->Setup();
  const PassResult untraced = workload->Run(nullptr);
  GateViolations(untraced, outcome);

  workload = MakeWorkload(config);
  workload->Setup();
  Tracer tracer(config.threads, config.smoke ? 16 : 1024);
  const std::int64_t origin = NowNs();
  const PassResult traced = workload->Run(&tracer);
  GateViolations(traced, outcome);
  workload->Verify(outcome.failures);
  outcome.layers =
      MeasureLayers(*workload, config, untraced, traced, tracer);
  outcome.attempted = traced.lookups + traced.updates;
  if (!spans_path.empty() && !tracer.WriteJson(spans_path, origin)) {
    outcome.failures.push_back("cannot write spans to " + spans_path);
  }
  return outcome;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool WriteResult(const std::string& path, const RunConfig& config,
                 const Outcome& outcome) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"schema\": \"dmapbench.v1\", \"workload\": %s, "
               "\"seed\": %llu, \"size\": \"%s\", \"seconds\": %d, "
               "\"threads\": %u,\n \"correct\": %s, \"attempted\": %llu, "
               "\"failed\": %llu, \"failures\": [",
               JsonString(config.workload).c_str(),
               (unsigned long long)config.seed, config.smoke ? "smoke" : "full",
               config.seconds, config.threads,
               outcome.failures.empty() ? "true" : "false",
               (unsigned long long)outcome.attempted,
               (unsigned long long)outcome.failed);
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    std::fprintf(out, "%s%s", i ? ", " : "",
                 JsonString(outcome.failures[i]).c_str());
  }
  std::fprintf(out, "],\n \"metrics\": {");
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::fprintf(out,
                 "%s\n  %s: {\"value\": %s, \"unit\": %s, "
                 "\"deterministic\": %s}",
                 i ? "," : "", JsonString(m.name).c_str(),
                 JsonNumber(m.value).c_str(), JsonString(m.unit).c_str(),
                 m.deterministic ? "true" : "false");
  }
  std::fprintf(out, "},\n \"per_layer\": {");
  for (std::size_t i = 0; i < outcome.layers.size(); ++i) {
    const Metric& m = outcome.layers[i];
    std::fprintf(out, "%s\n  %s: {\"value\": %s, \"unit\": %s}", i ? "," : "",
                 JsonString(m.name).c_str(), JsonNumber(m.value).c_str(),
                 JsonString(m.unit).c_str());
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

// No arguments: every workload at smoke size, timed and traced, plus the
// gate that deterministic metrics match at 1 and 4 threads.
int RunSmokeSuite() {
  int failures = 0;
  for (const std::string& name : WorkloadNames()) {
    RunConfig config;
    config.workload = name;
    config.smoke = true;
    const std::int64_t t0 = NowNs();
    Outcome timed = RunTimed(config);
    if (name == "closed-read-zipf" || name == "mobility-cache") {
      RunConfig serial = config;
      serial.threads = 1;
      const Outcome one = RunTimed(serial);
      for (std::size_t i = 0; i < timed.metrics.size(); ++i) {
        if (timed.metrics[i].deterministic &&
            timed.metrics[i].value != one.metrics[i].value) {
          timed.failures.push_back(timed.metrics[i].name +
                                   " differs between 1 and 4 threads");
        }
      }
      for (const std::string& f : one.failures) timed.failures.push_back(f);
    }
    const Outcome traced = RunTraced(config, "");
    for (const std::string& f : traced.failures) timed.failures.push_back(f);
    std::printf("%-17s %s  %llu ops, %zu layer metrics, %.2f s\n",
                name.c_str(), timed.failures.empty() ? "ok  " : "FAIL",
                (unsigned long long)timed.attempted, traced.layers.size(),
                double(NowNs() - t0) * 1e-9);
    for (const std::string& f : timed.failures) {
      std::fprintf(stderr, "dmapbench: %s: %s\n", name.c_str(), f.c_str());
    }
    failures += timed.failures.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int Usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "dmapbench: %s\n", error);
  std::fprintf(
      stderr,
      "usage: dmapbench --workload=<name> --seed=<n> [--size=full|smoke]\n"
      "                 [--seconds=<n>] [--threads=<n>]\n"
      "                 [--trace=<spans.json>] [--out=<result.json>]\n"
      "       dmapbench            (every workload at smoke size, gated)\n"
      "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return error != nullptr ? 2 : 0;
}

bool ParseUnsigned(const std::string& text, unsigned long long min,
                   unsigned long long max, unsigned long long* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(text);
  return *out >= min && *out <= max;
}

int Main(int argc, char** argv) {
  if (argc == 1) return RunSmokeSuite();
  RunConfig config;
  std::string trace_path, out_path;
  bool traced = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(nullptr);
    if (arg.rfind("--", 0) != 0) {
      return Usage(("unexpected argument " + arg).c_str());
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + arg).c_str());
    }
    unsigned long long number = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUnsigned(value, 0, ~0ULL, &number)) return Usage("bad --seed");
      config.seed = number;
      have_seed = true;
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") return Usage("bad --size");
      config.smoke = value == "smoke";
    } else if (arg == "--seconds") {
      if (!ParseUnsigned(value, 1, 600, &number)) return Usage("bad --seconds");
      config.seconds = int(number);
    } else if (arg == "--threads") {
      if (!ParseUnsigned(value, 1, 64, &number)) return Usage("bad --threads");
      config.threads = unsigned(number);
    } else if (arg == "--trace") {
      trace_path = value;
      traced = true;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Usage("--workload must name one of the workloads");
  }
  if (!have_seed) return Usage("--seed is required");

  const Outcome outcome =
      traced ? RunTraced(config, trace_path) : RunTimed(config);
  PrintMetrics(traced ? outcome.layers : outcome.metrics);
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "dmapbench: correctness: %s\n", f.c_str());
  }
  if (!out_path.empty() && !WriteResult(out_path, config, outcome)) {
    std::fprintf(stderr, "dmapbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return outcome.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dmapbench

int main(int argc, char** argv) {
  try {
    return dmapbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmapbench: %s\n", e.what());
    return 1;
  }
}
