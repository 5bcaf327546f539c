// Fixture: float accumulation in an obs merge path (float-accumulation)
// fires when the test stages this under src/obs/, and not elsewhere.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <vector>

namespace dmap {

struct Cell {
  double total = 0.0;
};

double MergeTotals(const std::vector<Cell>& cells) {
  double merged = 0.0;
  for (const Cell& cell : cells) {
    merged += cell.total;
  }
  return merged;
}

}  // namespace dmap
