#include "common/config.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace dmap {
namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void ParseError(int line, const std::string& what) {
  throw std::runtime_error("config parse error at line " +
                           std::to_string(line) + ": " + what);
}

std::int64_t ToInt(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const std::int64_t v = std::stoll(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("config: key '" + key + "' is not an integer: '" +
                             value + "'");
  }
}

double ToDouble(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("config: key '" + key + "' is not a number: '" +
                             value + "'");
  }
}

std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end =
        comma == std::string::npos ? value.size() : comma;
    const std::string item = Trim(value.substr(begin, end - begin));
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return items;
}

}  // namespace

Config Config::Parse(std::istream& in) {
  Config config;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) ParseError(line_no, "missing '='");
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) ParseError(line_no, "empty key");
    if (config.entries_.contains(key)) {
      ParseError(line_no, "duplicate key '" + key + "'");
    }
    config.entries_[key] = value;
  }
  return config;
}

Config Config::ParseString(const std::string& text) {
  std::istringstream in(text);
  return Parse(in);
}

Config Config::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  return Parse(in);
}

std::optional<std::string> Config::Raw(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  accessed_[key] = true;
  return it->second;
}

bool Config::Has(const std::string& key) const {
  return entries_.contains(key);
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  return Raw(key).value_or(fallback);
}

std::string Config::RequireString(const std::string& key) const {
  const auto value = Raw(key);
  if (!value) throw std::runtime_error("config: missing required key '" +
                                       key + "'");
  return *value;
}

std::int64_t Config::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  const auto value = Raw(key);
  return value ? ToInt(key, *value) : fallback;
}

double Config::GetDouble(const std::string& key, double fallback) const {
  const auto value = Raw(key);
  return value ? ToDouble(key, *value) : fallback;
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  const auto value = Raw(key);
  if (!value) return fallback;
  std::string lower = *value;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  throw std::runtime_error("config: key '" + key + "' is not a boolean: '" +
                           *value + "'");
}

std::vector<std::int64_t> Config::GetIntList(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto value = Raw(key);
  if (!value) return fallback;
  std::vector<std::int64_t> items;
  for (const std::string& item : SplitList(*value)) {
    items.push_back(ToInt(key, item));
  }
  return items;
}

std::vector<double> Config::GetDoubleList(
    const std::string& key, std::vector<double> fallback) const {
  const auto value = Raw(key);
  if (!value) return fallback;
  std::vector<double> items;
  for (const std::string& item : SplitList(*value)) {
    items.push_back(ToDouble(key, item));
  }
  return items;
}

std::vector<std::string> Config::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : entries_) {
    (void)value;
    if (!accessed_.contains(key)) unused.push_back(key);
  }
  return unused;
}

unsigned SimConfig::EffectiveThreads() const {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

SimConfig SimConfig::FromConfig(const Config& config) {
  SimConfig sim;
  const std::int64_t threads = config.GetInt("threads", 0);
  if (threads < 0 || threads > std::int64_t(kMaxThreads)) {
    throw std::runtime_error("config: 'threads' must be in [0, " +
                             std::to_string(kMaxThreads) + "]");
  }
  sim.threads = unsigned(threads);
  const std::int64_t shards = config.GetInt("shards", 0);
  if (shards < 0 || shards > kMaxShards) {
    throw std::runtime_error("config: 'shards' must be in [0, " +
                             std::to_string(kMaxShards) + "]");
  }
  sim.shards = int(shards);
  sim.metrics_out = config.GetString("metrics_out", "");
  sim.trace_out = config.GetString("trace_out", "");
  const std::int64_t sample = config.GetInt("trace_sample", 1);
  if (sample < 1) {
    throw std::runtime_error("config: 'trace_sample' must be >= 1");
  }
  sim.trace_sample = std::uint64_t(sample);
  sim.serving = config.GetString("serving", "");
  return sim;
}

}  // namespace dmap
