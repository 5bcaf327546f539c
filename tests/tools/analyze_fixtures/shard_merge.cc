// Fixture: unordered iteration over per-shard maps inside sharded-store
// merge/enumeration functions. SizesByAs and GuidsStoredIn are in the
// critical-function set of unordered-iteration; ScanShards is not. The
// allow-marked loop documents the escape hatch.
// Not compiled — consumed by tests/tools/analyze_test.py.
#include <cstddef>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Shard {
  std::unordered_map<int, int> map;
};

std::vector<std::size_t> SizesByAs(const std::vector<Shard>& shards) {
  std::vector<std::size_t> sizes(16, 0);
  for (const Shard& shard : shards) {
    for (const auto& [key, value] : shard.map) {  // flagged
      sizes[std::size_t(key % 16)] += std::size_t(value);
    }
  }
  return sizes;
}

std::vector<int> GuidsStoredIn(const Shard& shard) {
  std::vector<int> guids;
  // lint:allow(determinism:unordered-iteration) result is sorted by caller
  for (const auto& [key, value] : shard.map) {
    guids.push_back(key + value);
  }
  return guids;
}

int ScanShards(const std::vector<Shard>& shards) {
  int total = 0;
  for (const Shard& shard : shards) {
    for (const auto& [key, value] : shard.map) {  // not a merge path
      total += key + value;
    }
  }
  return total;
}

}  // namespace fixture
