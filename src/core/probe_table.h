// Linear-probing table shared by ShardedMappingStore and ResolverCache: a
// power-of-two slot array at <= 50% load, probed from each key's 32-bit
// tag. Erase shifts the rest of the probe run back instead of leaving
// tombstones, so chains never lengthen under insert/erase churn. Slots move
// on Erase and on growth: an index or reference lasts until the next
// mutation. Concurrent Finds are safe while no mutation runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dmap {

// SplitMix64-style finalizer mixing a GUID fingerprint and a 32-bit key
// (an AsId) into a well-spread probe tag.
inline std::uint32_t ProbeTag(std::uint64_t fingerprint, std::uint32_t key) {
  std::uint64_t x = fingerprint ^ (std::uint64_t(key) * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return std::uint32_t(x);
}

// `Slot` is a value type with a `std::uint32_t tag` member and an `empty()`
// predicate that holds for a value-initialised Slot.
template <typename Slot>
class ProbeTable {
 public:
  ProbeTable() : slots_(kMinCapacity) {}

  std::size_t size() const { return size_; }
  Slot& operator[](std::size_t i) { return slots_[i]; }
  const Slot& operator[](std::size_t i) const { return slots_[i]; }

  // Index of the slot whose key `match` accepts, or of the empty slot that
  // ends the tag's probe chain when the key is absent.
  template <typename Match>
  std::size_t Find(std::uint32_t tag, const Match& match) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    while (!slots_[i].empty() && !(slots_[i].tag == tag && match(slots_[i]))) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Stores `slot`, whose key is absent at `hole` (Find's answer), first
  // doubling the capacity if the insert would pass 50% load.
  void Insert(std::size_t hole, const Slot& slot) {
    if ((size_ + 1) * 2 > slots_.size()) {
      const std::vector<Slot> old =
          std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
      for (const Slot& moved : old) {
        if (!moved.empty()) slots_[Find(moved.tag, kNoMatch)] = moved;
      }
      hole = Find(slot.tag, kNoMatch);
    }
    slots_[hole] = slot;
    ++size_;
  }

  // Empties slot `i` and shifts later members of its probe run back so
  // that every remaining key stays reachable from its home slot.
  void Erase(std::size_t i) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (i + 1) & mask; !slots_[j].empty();
         j = (j + 1) & mask) {
      // Slot j may fill the hole only if its home is not in (i, j].
      if (((j - slots_[j].tag) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  // Visits every occupied slot in index order.
  template <typename Visit>
  void ForEach(const Visit& visit) const {
    for (const Slot& slot : slots_) {
      if (!slot.empty()) visit(slot);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // Matches no key: Find then returns the first empty slot of the chain.
  static constexpr auto kNoMatch = [](const Slot&) { return false; };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace dmap
