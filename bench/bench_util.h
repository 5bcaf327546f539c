// Shared helpers for the experiment drivers: one reader per bench flag
// (Config::FromArgs keys; SimConfig::FromConfig reads --threads and the
// observability sinks, SimConfig::Shards --shards in the benches that
// build a sharded store, ServingConfig::FromOption --serving), and
// uniform printing of summaries and CDF series. A bench reads every flag it
// takes, then calls CheckArgs once before any compute.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "common/config.h"
#include "common/stats.h"
#include "core/resolver_cache.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "sim/metrics.h"

namespace dmap::bench {

// Workload scale factor; NaN and inf must never reach Scaled()'s cast.
inline double Scale(const Config& args) {
  return args.GetDouble("scale", 1.0, Config::kMinPositive, Config::kMaxFinite);
}

// Quorum/consistency knobs of the wire-protocol benches; see
// ProtocolNetworkOptions. Absent: each bench applies its own default.
// 0 = majority, 1 = legacy fire-and-wait-all.
inline std::optional<int> WriteQuorum(const Config& args) {
  return args.FindInt("write_quorum", 0, 256);
}
// 1 = the paper's sequential probing, >1 = fan-out.
inline std::optional<int> ReadQuorum(const Config& args) {
  return args.FindInt("read_quorum", 1, 256);
}
// GUIDs repaired per background round, 0 = off.
inline std::optional<int> AntiEntropy(const Config& args) {
  return args.FindInt("anti_entropy", 0, INT_MAX);
}
// GUID moves per batched handoff wave; absent = the built-in size sweep.
inline std::optional<int> BatchUpdates(const Config& args) {
  return args.FindInt("batch_updates", 1, 65535);
}

// Seed of the per-message fault fates: identical (plan, seed) pairs replay
// the identical chaos run.
inline std::uint64_t FaultSeed(const Config& args) {
  return args.GetInt<std::uint64_t>("fault_seed", 0);
}

// A declarative fault plan file (fault/fault_plan.h), parsed before any
// compute; empty path = no injected faults.
struct FaultPlanArg {
  std::string path;
  FaultPlan plan;
};
inline FaultPlanArg ReadFaultPlan(const Config& args) {
  return {args.GetString("fault_plan", ""),
          args.GetParsed("fault_plan", FaultPlan{}, FaultPlan::ParseFile)};
}

// Resolver-side mapping cache: a capacity or inline k=v,...
// (CacheConfig::ParseArg); absent = disabled, the full-probe behaviour.
inline CacheConfig Cache(const Config& args) {
  return args.GetParsed("cache", CacheConfig{}, CacheConfig::ParseArg);
}

// The one check after every reader ran: --help lists the flags read, with
// their defaults and ranges; a flag no reader used exits 2.
inline void CheckArgs(const Config& args) {
  args.FinishReading(args.GetBool("help", false));
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
