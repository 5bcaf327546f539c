// Fixture: banned seed sources outside any function body — a namespace-
// scope static, a default member initializer and macro bodies at file
// scope and inside a namespace (seed-purity). The digit separators below must not shift the reported
// line numbers. Not compiled — consumed by tests/tools/analyze_test.py.
#include <ctime>
#include <random>

#define STAMP_NOW time(nullptr)  // VIOLATION: line 8

namespace fix {

constexpr long kMillion = 1'000'000;
constexpr long kBillion = 1'000'000'000;

static std::random_device g_rd;  // VIOLATION: line 15

struct Stamped {
  long t = clock();  // VIOLATION: line 18
  long limit = kMillion;
};

#define SEED_NOW() rand()  // VIOLATION: line 22

}  // namespace fix
