// Fixture: unseeded randomness is a banned nondeterminism source
// (seed-purity), reachable from an entry point or not.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <cstdlib>
#include <random>

namespace dmap {

int RandomDelay() { return std::rand() % 100; }

unsigned HardwareSeed() {
  std::random_device device;
  return device();
}

}  // namespace dmap
