// Fixture: wall-clock reads are banned nondeterminism sources (seed-purity),
// reachable from an entry point or not.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <chrono>
#include <ctime>

namespace dmap {

double NowSeconds() {
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

long NowUnix() { return time(nullptr); }

}  // namespace dmap
