// The one option reader of the experiment binaries: key = value config
// files for the runner,
//
//   # comment
//   experiment = response_time
//   ks         = 1, 3, 5
//
// and bench command lines (FromArgs: `--write-quorum=1` is the key
// `write_quorum`). The getter call that reads an option states its type,
// default and bounds; every read is recorded, so Describe() lists the
// options a program takes and UnusedKeys() catches the ones it never
// asked for (typos).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace dmap {

class Config {
 public:
  // GetDouble bounds for "positive" and "finite" (NaN and inf are always
  // rejected).
  static constexpr double kMinPositive =
      std::numeric_limits<double>::denorm_min();
  static constexpr double kMaxFinite = std::numeric_limits<double>::max();

  Config() = default;

  // Throws std::runtime_error with a line diagnostic on malformed input
  // (missing '=', duplicate key, empty key).
  static Config Parse(std::istream& in);
  static Config ParseString(const std::string& text);
  static Config ParseFile(const std::string& path);
  // Command-line flags as keys: `--write-quorum=1` and `--write-quorum 1`
  // both set `write_quorum`. A flag with no value (the last argument, or
  // one followed by another `--` flag) is a switch set to true (`--help`).
  // A positional argument, a flag spelled with '_', an empty value or a
  // repeated flag is an error. Errors of a command-line Config, here and
  // in every getter, print the message and exit 2 instead of throwing.
  static Config FromArgs(int argc, char** argv);

  bool Has(const std::string& key) const;

  // Typed getters with defaults. Each throws std::runtime_error naming the
  // key when the value does not parse as the requested type or lies outside
  // [min, max]; the range is checked before the value is narrowed to T, so
  // the default bounds are T's own range.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  template <std::integral T>
  T GetInt(const std::string& key, T fallback,
           T min = std::numeric_limits<T>::min(),
           T max = std::numeric_limits<T>::max()) const {
    return ReadInt(key, min, max, std::to_string(fallback)).value_or(fallback);
  }
  // For a key whose absence selects a behaviour of its own: nullopt when
  // the key is absent.
  template <std::integral T>
  std::optional<T> FindInt(const std::string& key, T min, T max) const {
    return ReadInt(key, min, max, std::nullopt);
  }
  double GetDouble(const std::string& key, double fallback,
                   double min = -kMaxFinite, double max = kMaxFinite) const;
  bool GetBool(const std::string& key, bool fallback) const;
  // Comma-separated lists; every item is checked against [min, max].
  std::vector<std::int64_t> GetIntList(
      const std::string& key, std::vector<std::int64_t> fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> fallback,
                                    double min = -kMaxFinite,
                                    double max = kMaxFinite) const;

  // A structured option (a file path, an inline `k=v,...` string): absent
  // or empty yields `fallback`, anything else `parse(value)`; an exception
  // from `parse` becomes the key-naming error.
  template <typename T, typename Reader>
  T GetParsed(const std::string& key, T fallback, Reader parse) const {
    const std::string value = GetString(key, "");
    if (value.empty()) return fallback;
    try {
      return parse(value);
    } catch (const std::exception& e) {
      Reject(key, value, e.what());
    }
  }

  // Required variants: throw when the key is absent.
  std::string RequireString(const std::string& key) const;

  // The key-naming error for `value`, a value of `key` that the caller's
  // own parser refused for reason `why`.
  [[noreturn]] void Reject(const std::string& key, const std::string& value,
                           const std::string& why) const;

  // Keys present in the input that no getter has touched — typically typos.
  std::vector<std::string> UnusedKeys() const;

  // Every key a getter asked for, in first-read order, one line each with
  // its default and range: `--threads=0  [0, 4096]` under a usage line for
  // command-line options, `threads = 0  # [0, 4096]` for a config file, so
  // that listing is itself a valid config.
  std::string Describe() const;

  // The one check an entry point makes after it read every key and before
  // any compute. With `describe` it prints Describe() and exits 0;
  // otherwise, when some key went unread, it names each one and exits 2.
  void FinishReading(bool describe) const;

 private:
  struct Read {
    std::string key;
    std::optional<std::string> fallback;  // nullopt for a FindInt key
    std::string range;
  };

  // The raw value of `key`; records the read for Describe().
  std::optional<std::string> Raw(const std::string& key,
                                 std::optional<std::string> fallback,
                                 std::string range) const;
  // A comma-separated list: `text` renders a fallback item for
  // Describe(), `parse` reads and checks one item.
  template <typename T, typename Text, typename Reader>
  std::vector<T> ReadList(const std::string& key, std::vector<T> fallback,
                          const std::string& range, Text text,
                          Reader parse) const;
  // Throws std::runtime_error, or for a command-line Config prints
  // `message` and exits 2.
  [[noreturn]] void Fail(const std::string& message) const;
  template <std::integral T>
  std::optional<T> ReadInt(const std::string& key, T min, T max,
                           std::optional<std::string> fallback) const {
    const auto value = Raw(key, std::move(fallback), RangeText(min, max));
    if (!value) return std::nullopt;
    return ToNumber(key, *value, min, max);
  }
  // Parses `value` as a number in [min, max]; an integer T is parsed at the
  // 64-bit type of its signedness, so the range check precedes narrowing.
  template <typename T>
  T ToNumber(const std::string& key, const std::string& value, T min,
             T max) const {
    using Wide = std::conditional_t<
        std::is_floating_point_v<T>, T,
        std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>>;
    Wide v = 0;
    // from_chars reads the whole string or fails; it takes no leading '+'.
    const bool plus = value.size() > 1 && value[0] == '+' && value[1] != '-';
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data() + plus, end, v);
    if (error != std::errc() || stop != end || !(v >= min && v <= max)) {
      Reject(key, value,
             std::string(std::is_integral_v<T> ? "must be an integer in "
                                               : "must be a number in ") +
                 RangeText(min, max));
    }
    return T(v);
  }
  template <std::integral T>
  static std::string RangeText(T min, T max) {
    return RangeText(std::to_string(min), std::to_string(max));
  }
  static std::string RangeText(const std::string& min, const std::string& max);
  static std::string RangeText(double min, double max);
  std::string Spell(const std::string& key) const;

  std::map<std::string, std::string> entries_;
  // Set by FromArgs: errors and Describe() spell keys as flags.
  std::optional<std::string> program_;
  mutable std::vector<Read> reads_;  // every key a getter asked for
};

// Process-wide execution knobs the experiment binaries thread into the
// harnesses: worker threads, store shards and the observability sinks.
// Separate from the per-experiment options because it describes the
// machine, not the workload — results are bit-identical for any value of
// `threads` and `shards`.
struct SimConfig {
  // 0 = one worker per hardware thread ($DMAP_THREADS overrides);
  // 1 = the serial code path. At most kMaxThreads.
  static constexpr unsigned kMaxThreads = 4096;
  unsigned threads = 0;

  // The `shards` key: the mapping-store shard count handed to
  // DMapOptions::store_shards; 0 (the default) = auto, one shard per
  // hardware thread clamped to a power of two. Results are bit-identical
  // for any value. At most kMaxShards. Read apart from FromConfig, only by
  // the programs that build a sharded store, so that the others reject
  // the key as unread.
  static constexpr int kMaxShards = 256;
  static int Shards(const Config& config);

  // Observability sinks (src/obs/). Empty paths disable the corresponding
  // export; exports are bit-identical for every value of `threads`.
  std::string metrics_out;  // metrics summary (.json => JSON, else CSV)
  std::string trace_out;    // per-lookup probe trace CSV
  std::uint64_t trace_sample = 1;  // trace 1-in-N GUIDs (by fingerprint)

  // Reads the `threads`, `metrics_out`, `trace_out` and `trace_sample`
  // keys (defaults above) for the benches and the runner.
  static SimConfig FromConfig(const Config& config);
};

}  // namespace dmap
