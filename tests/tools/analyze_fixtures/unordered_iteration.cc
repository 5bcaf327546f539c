// Fixture: iterating an unordered container in a function that feeds an
// exporter fires unordered-iteration, while the same iteration in a
// non-export path is fine, and so is a find()/end() lookup in an exporter.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <string>
#include <unordered_map>

namespace dmap {

std::string ExportCounters(
    const std::unordered_map<std::string, int>& counters) {
  std::string out;
  for (const auto& entry : counters) {
    out += entry.first;
  }
  return out;
}

int ExportOne(const std::unordered_map<std::string, int>& counters,
              const std::string& key) {
  auto it = counters.find(key);
  return it != counters.end() ? it->second : 0;  // a lookup, not flagged
}

int CountNonZero(const std::unordered_map<std::string, int>& counters) {
  int total = 0;
  for (const auto& entry : counters) {
    if (entry.second != 0) ++total;
  }
  return total;
}

}  // namespace dmap
