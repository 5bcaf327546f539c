// Fixture for the escape-hatch audit on unordered-iteration: an allow
// naming a rule the analyzer cannot waive (misspelt "unordered-iteraton")
// and an allow with no reason are each allow-audit findings and waive
// nothing; the well-formed allow stays silent.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <string>
#include <unordered_map>

namespace dmap {

int ExportTypo(const std::unordered_map<std::string, int>& counters) {
  int total = 0;
  // lint:allow(determinism:unordered-iteraton) misspelt, waives nothing
  for (const auto& entry : counters) total += entry.second;
  return total;
}

int BareAllow(int v) {
  // lint:allow(determinism:unordered-iteration)
  return v;
}

int ExportSum(const std::unordered_map<std::string, int>& counters) {
  int total = 0;
  // lint:allow(determinism:unordered-iteration) integer sum, order-free
  for (const auto& entry : counters) total += entry.second;
  return total;
}

}  // namespace dmap
