#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

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

// Shortest text that parses back to `value`.
std::string FormatDouble(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
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

Config Config::FromArgs(int argc, char** argv) {
  Config config;
  config.program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    std::string key = arg.starts_with("--") ? arg.substr(2, eq - 2) : "";
    if (key.empty() || key.find('_') != std::string::npos) {
      config.Fail("unknown argument: " + arg);
    }
    std::replace(key.begin(), key.end(), '-', '_');
    std::string value = "true";
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !std::string(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    if (value.empty()) config.Reject(key, value, "empty");
    if (!config.entries_.emplace(key, value).second) {
      config.Fail("duplicate flag " + config.Spell(key));
    }
  }
  return config;
}

std::string Config::Spell(const std::string& key) const {
  if (!program_) return "'" + key + "'";
  std::string flag = "--" + key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

void Config::Fail(const std::string& message) const {
  if (!program_) throw std::runtime_error("config: " + message);
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

void Config::Reject(const std::string& key, const std::string& value,
                    const std::string& why) const {
  Fail("bad " + Spell(key) + " value '" + value + "': " + why);
}

std::optional<std::string> Config::Raw(const std::string& key,
                                       std::optional<std::string> fallback,
                                       std::string range) const {
  if (std::none_of(reads_.begin(), reads_.end(),
                   [&](const Read& read) { return read.key == key; })) {
    reads_.push_back({key, std::move(fallback), std::move(range)});
  }
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool Config::Has(const std::string& key) const {
  return entries_.contains(key);
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  return Raw(key, fallback, "").value_or(fallback);
}

std::string Config::RequireString(const std::string& key) const {
  const auto value = Raw(key, std::nullopt, "");
  if (!value) Fail("missing required key " + Spell(key));
  return *value;
}

double Config::GetDouble(const std::string& key, double fallback, double min,
                         double max) const {
  const auto value = Raw(key, FormatDouble(fallback), RangeText(min, max));
  return value ? ToNumber(key, *value, min, max) : fallback;
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  const auto value = Raw(key, fallback ? "true" : "false", "");
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
  Reject(key, *value, "not a boolean");
}

template <typename T, typename Text, typename Reader>
std::vector<T> Config::ReadList(const std::string& key,
                                std::vector<T> fallback,
                                const std::string& range, Text text,
                                Reader parse) const {
  std::string shown;
  for (const T item : fallback) {
    if (!shown.empty()) shown += ", ";
    shown += text(item);
  }
  const auto value = Raw(key, shown, "each in " + range);
  if (!value) return fallback;
  std::vector<T> values;
  for (const std::string& item : SplitList(*value)) {
    values.push_back(parse(item));
  }
  return values;
}

std::vector<std::int64_t> Config::GetIntList(
    const std::string& key, std::vector<std::int64_t> fallback,
    std::int64_t min, std::int64_t max) const {
  return ReadList(
      key, std::move(fallback), RangeText(min, max),
      [](std::int64_t item) { return std::to_string(item); },
      [&](const std::string& item) { return ToNumber(key, item, min, max); });
}

std::vector<double> Config::GetDoubleList(const std::string& key,
                                          std::vector<double> fallback,
                                          double min, double max) const {
  return ReadList(
      key, std::move(fallback), RangeText(min, max), FormatDouble,
      [&](const std::string& item) { return ToNumber(key, item, min, max); });
}

std::string Config::RangeText(const std::string& min, const std::string& max) {
  return "[" + min + ", " + max + "]";
}

std::string Config::RangeText(double min, double max) {
  std::string low = "[";
  low += FormatDouble(min);
  if (min == -kMaxFinite) low = "(-inf";
  if (min == kMinPositive) low = "(0";
  std::string high = FormatDouble(max) + "]";
  if (max == kMaxFinite) high = "inf)";
  return low + ", " + high;
}

std::vector<std::string> Config::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : entries_) {
    if (std::none_of(reads_.begin(), reads_.end(),
                     [&](const Read& read) { return read.key == key; })) {
      unused.push_back(key);
    }
  }
  return unused;
}

std::string Config::Describe() const {
  std::string out;
  if (program_) out = "usage: " + *program_ + " [--flag=value]...\n";
  for (const Read& read : reads_) {
    std::string line;
    if (program_) {
      const std::string flag = Spell(read.key);
      line = "  " + flag + (read.fallback ? "=" + *read.fallback : "");
    } else {
      line = (read.fallback ? "" : "# ") + read.key + " = " +
             read.fallback.value_or("");
    }
    if (!read.range.empty()) {
      line.resize(std::max<std::size_t>(line.size() + 2, 32), ' ');
      line += (program_ ? "" : "# ") + read.range;
    }
    out += line + "\n";
  }
  return out;
}

void Config::FinishReading(bool describe) const {
  if (describe) {
    std::fputs(Describe().c_str(), stdout);
    std::exit(0);
  }
  const std::vector<std::string> unused = UnusedKeys();
  if (unused.empty()) return;
  std::string names;
  for (const std::string& key : unused) {
    const std::string name = Spell(key);
    names += " " + name;
  }
  std::fprintf(stderr, "unknown %s:%s\n",
               program_ ? "flag(s)" : "config key(s)", names.c_str());
  std::exit(2);
}

int SimConfig::Shards(const Config& config) {
  return config.GetInt("shards", 0, 0, kMaxShards);
}

SimConfig SimConfig::FromConfig(const Config& config) {
  SimConfig sim;
  sim.threads = config.GetInt("threads", sim.threads, 0u, kMaxThreads);
  sim.metrics_out = config.GetString("metrics_out", sim.metrics_out);
  sim.trace_out = config.GetString("trace_out", sim.trace_out);
  sim.trace_sample = config.GetInt<std::uint64_t>(
      "trace_sample", sim.trace_sample, 1,
      std::numeric_limits<std::int64_t>::max());
  return sim;
}

}  // namespace dmap
