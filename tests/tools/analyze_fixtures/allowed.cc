// Fixture for the escape hatch (staged under src/obs/): an allow with a
// reason waives float-accumulation; a bare allow waives nothing. An allow
// naming wall-clock names no waivable rule, since seed-purity findings
// cannot be waived: the clock read still fires. The bare and the
// wall-clock allow are each an allow-audit finding.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <ctime>

namespace dmap {

struct Cell {
  double total = 0.0;
};

double MergeTwo(const Cell& a, const Cell& b) {
  double merged = a.total;
  // lint:allow(determinism:float-accumulation) two cells in a fixed order
  merged += b.total;
  return merged;
}

double MergeBare(const Cell& a, const Cell& b) {
  double merged = a.total;
  merged += b.total;  // lint:allow(determinism:float-accumulation)
  return merged;
}

long StartStamp() {
  // lint:allow(determinism:wall-clock) log header only, never in results
  return time(nullptr);
}

}  // namespace dmap
