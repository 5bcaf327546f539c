// Minimal key = value configuration files for the experiment runner:
//
//   # comment
//   experiment = response_time
//   ases       = 26424
//   ks         = 1, 3, 5
//
// Typed accessors validate on read; typos are caught by UnusedKeys(), which
// lists keys the program never asked for.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dmap {

class Config {
 public:
  Config() = default;

  // Throws std::runtime_error with a line diagnostic on malformed input
  // (missing '=', duplicate key, empty key).
  static Config Parse(std::istream& in);
  static Config ParseString(const std::string& text);
  static Config ParseFile(const std::string& path);

  bool Has(const std::string& key) const;

  // Typed getters with defaults. Throw std::runtime_error when the value
  // exists but cannot be parsed as the requested type.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  // Comma-separated lists.
  std::vector<std::int64_t> GetIntList(
      const std::string& key, std::vector<std::int64_t> fallback) const;
  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> fallback) const;

  // Required variants: throw when the key is absent.
  std::string RequireString(const std::string& key) const;

  // Keys present in the file that no getter has touched — typically typos.
  std::vector<std::string> UnusedKeys() const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::optional<std::string> Raw(const std::string& key) const;

  std::map<std::string, std::string> entries_;
  mutable std::map<std::string, bool> accessed_;
};

// Process-wide execution knobs the experiment binaries thread into the
// harnesses (currently just the worker-thread count). Separate from the
// per-experiment configs because it describes the machine, not the
// workload — results are bit-identical for any value of `threads`.
struct SimConfig {
  // 0 = one worker per hardware thread ($DMAP_THREADS overrides);
  // 1 = the serial code path. At most kMaxThreads, as on the bench CLI.
  static constexpr unsigned kMaxThreads = 4096;
  unsigned threads = 0;

  // Mapping-store shard count handed to DMapOptions::store_shards; 0 =
  // auto (one shard per hardware thread, clamped to a power of two).
  // Results are bit-identical for any value of `shards`. At most
  // kMaxShards, as on the bench CLI.
  static constexpr int kMaxShards = 256;
  int shards = 0;

  // Observability sinks (src/obs/). Empty paths disable the corresponding
  // export; exports are bit-identical for every value of `threads`.
  std::string metrics_out;  // metrics summary (.json => JSON, else CSV)
  std::string trace_out;    // per-lookup probe trace CSV
  std::uint64_t trace_sample = 1;  // trace 1-in-N GUIDs (by fingerprint)

  // Serving-tier capacity model, in ServingConfig::ParseArg form: a file
  // path (configs/*.serving) or an inline "k=v,..." string. Empty =
  // disabled (the infinite-capacity behaviour). Parsed lazily by the
  // harness that consumes it, so a typo still fails before any compute.
  std::string serving;

  // Resolves 0 to the hardware thread count (without consulting
  // $DMAP_THREADS — that hook lives in ThreadPool::Resolve).
  unsigned EffectiveThreads() const;

  // Reads the `threads`, `shards`, `metrics_out`, `trace_out`,
  // `trace_sample` and `serving` keys (defaults above).
  static SimConfig FromConfig(const Config& config);
};

}  // namespace dmap
