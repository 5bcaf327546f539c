#include "fault/fault_plan.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/config.h"

namespace dmap {
namespace {

// Parses a decimal AS id: digits only (a sign is rejected, so "-1" cannot
// wrap), at most kInvalidAs - 1. Returns false on anything else.
bool ParseAsId(const std::string& text, AsId* as) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || value > kInvalidAs - 1) {
    return false;
  }
  *as = AsId(value);
  return true;
}

// Parses a finite time in ms; with `allow_inf`, the keyword "inf" means
// FailureView::kForever. NaN and infinite spellings are rejected.
bool ParseMs(const std::string& text, bool allow_inf, double* ms) {
  if (allow_inf && text == "inf") {
    *ms = FailureView::kForever.millis();
    return true;
  }
  char* end = nullptr;
  *ms = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*ms);
}

// Parses one "as:down_ms:up_ms" triple; `up_ms` may be "inf".
CrashWindow ParseWindow(const std::string& spec, const char* key,
                        bool wipe_storage) {
  const auto bad = [&](const std::string& why) {
    throw std::invalid_argument("FaultPlan: bad " + std::string(key) +
                                " entry '" + spec + "': " + why);
  };
  const std::size_t first = spec.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : spec.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    bad("expected as:down_ms:up_ms");
  }
  const std::string as_str = spec.substr(0, first);
  const std::string down_str = spec.substr(first + 1, second - first - 1);
  const std::string up_str = spec.substr(second + 1);

  AsId as = kInvalidAs;
  if (!ParseAsId(as_str, &as)) bad("AS id is not an unsigned AS number");
  double down = 0.0;
  double up = 0.0;
  if (!ParseMs(down_str, false, &down)) bad("down_ms is not a finite number");
  if (!ParseMs(up_str, true, &up)) bad("up_ms is not a finite number or inf");

  CrashWindow window;
  window.as = as;
  window.down_at = SimTime::Millis(down);
  window.up_at = SimTime::Millis(up);
  window.wipe_storage = wipe_storage;
  return window;
}

std::vector<CrashWindow> ParseWindowList(const Config& config,
                                         const char* key,
                                         bool wipe_storage) {
  std::vector<CrashWindow> windows;
  const std::string raw = config.GetString(key, "");
  std::istringstream stream(raw);
  std::string item;
  while (std::getline(stream, item, ',')) {
    // Trim surrounding whitespace.
    const std::size_t begin = item.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const std::size_t last = item.find_last_not_of(" \t");
    windows.push_back(
        ParseWindow(item.substr(begin, last - begin + 1), key, wipe_storage));
  }
  return windows;
}

// Parses one "a|b:down_ms:up_ms" partition spec; `up_ms` may be "inf".
PartitionWindow ParsePartition(const std::string& spec) {
  const auto bad = [&](const std::string& why) {
    throw std::invalid_argument("FaultPlan: bad partition entry '" + spec +
                                "': " + why);
  };
  const std::size_t pipe = spec.find('|');
  if (pipe == std::string::npos) bad("expected a|b:down_ms:up_ms");
  const std::size_t first = spec.find(':', pipe + 1);
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : spec.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    bad("expected a|b:down_ms:up_ms");
  }
  const std::string a_str = spec.substr(0, pipe);
  const std::string b_str = spec.substr(pipe + 1, first - pipe - 1);
  const std::string down_str = spec.substr(first + 1, second - first - 1);
  const std::string up_str = spec.substr(second + 1);

  AsId a = kInvalidAs;
  AsId b = kInvalidAs;
  if (!ParseAsId(a_str, &a)) bad("first AS id is not an unsigned AS number");
  if (!ParseAsId(b_str, &b)) bad("second AS id is not an unsigned AS number");
  if (a == b) bad("endpoints must differ");
  double down = 0.0;
  double up = 0.0;
  if (!ParseMs(down_str, false, &down)) bad("down_ms is not a finite number");
  if (!ParseMs(up_str, true, &up)) bad("up_ms is not a finite number or inf");

  PartitionWindow window;
  window.a = a;
  window.b = b;
  window.down_at = SimTime::Millis(down);
  window.up_at = SimTime::Millis(up);
  return window;
}

std::vector<PartitionWindow> ParsePartitionList(const Config& config) {
  std::vector<PartitionWindow> windows;
  const std::string raw = config.GetString("partition", "");
  std::istringstream stream(raw);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t begin = item.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const std::size_t last = item.find_last_not_of(" \t");
    windows.push_back(ParsePartition(item.substr(begin, last - begin + 1)));
  }
  return windows;
}

void ValidateProbability(double p, const char* field) {
  if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("FaultPlan: " + std::string(field) +
                                " must be in [0, 1] (got " +
                                std::to_string(p) + ")");
  }
}

}  // namespace

void FaultPlan::Validate() const {
  ValidateProbability(drop_probability, "drop_probability");
  ValidateProbability(duplicate_probability, "duplicate_probability");
  if (!(jitter_ms >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "FaultPlan: jitter_ms must be >= 0 (got " +
        std::to_string(jitter_ms) + ")");
  }
  const auto check_windows = [](const std::vector<CrashWindow>& windows,
                                const char* kind) {
    for (const CrashWindow& w : windows) {
      if (w.as == kInvalidAs) {
        throw std::invalid_argument("FaultPlan: " + std::string(kind) +
                                    " entry with invalid AS id");
      }
      if (w.down_at > w.up_at) {
        throw std::invalid_argument("FaultPlan: " + std::string(kind) +
                                    " entry with down_at > up_at");
      }
    }
  };
  check_windows(crashes, "crash");
  check_windows(outages, "outage");
  for (const PartitionWindow& w : partitions) {
    if (w.a == kInvalidAs || w.b == kInvalidAs) {
      throw std::invalid_argument(
          "FaultPlan: partition entry with invalid AS id");
    }
    if (w.a == w.b) {
      throw std::invalid_argument(
          "FaultPlan: partition entry with identical endpoints");
    }
    if (w.down_at > w.up_at) {
      throw std::invalid_argument(
          "FaultPlan: partition entry with down_at > up_at");
    }
  }
}

namespace {

// Reads every key of a fault plan; `where` ends the unknown-key error, so
// a misspelt key fails instead of silently running without that fault.
FaultPlan FromConfig(const Config& config, const std::string& where) {
  FaultPlan plan;
  plan.drop_probability = config.GetDouble("drop_probability", 0.0);
  plan.duplicate_probability =
      config.GetDouble("duplicate_probability", 0.0);
  plan.jitter_ms = config.GetDouble("jitter_ms", 0.0);
  plan.crashes = ParseWindowList(config, "crash", /*wipe_storage=*/true);
  plan.outages = ParseWindowList(config, "outage", /*wipe_storage=*/false);
  plan.partitions = ParsePartitionList(config);
  const auto unused = config.UnusedKeys();
  if (!unused.empty()) {
    throw std::invalid_argument("FaultPlan: unknown key '" + unused[0] +
                                "'" + where);
  }
  plan.Validate();
  return plan;
}

}  // namespace

FaultPlan FaultPlan::ParseString(const std::string& text) {
  return FromConfig(Config::ParseString(text), "");
}

FaultPlan FaultPlan::ParseFile(const std::string& path) {
  return FromConfig(Config::ParseFile(path), " in " + path);
}

std::vector<AsId> CustomerCone(const AsGraph& graph, AsId center) {
  if (center >= graph.num_nodes()) {
    throw std::invalid_argument("CustomerCone: unknown AS");
  }
  std::vector<AsId> cone;
  cone.push_back(center);
  const std::uint32_t center_degree = graph.Degree(center);
  for (const AsGraph::Neighbor& n : graph.Neighbors(center)) {
    if (graph.Degree(n.id) < center_degree) cone.push_back(n.id);
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

}  // namespace dmap
