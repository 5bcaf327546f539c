// Counts heap allocations around the event kernel's hot path: once warm,
// scheduling, running and cancelling events whose closure fits
// std::function's inline buffer must allocate nothing. The binary replaces
// the global operator new/delete with counting versions, so it is its own
// test executable. Under ASan or TSan the replacement is compiled out and
// the tests skip, so the sanitizers keep their own allocators.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "event/simulator.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DMAP_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DMAP_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace {
std::size_t g_allocations = 0;  // the kernel and these tests are serial
}  // namespace

#ifndef DMAP_ALLOC_TEST_SANITIZED
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace dmap {
namespace {

constexpr int kEvents = 10'000;

// Schedules events whose closure is `[this, id]`: 16 bytes and trivially
// copyable, so std::function keeps it inline.
class EventBatch {
 public:
  EventBatch() : handles_(kEvents) {}

  void ScheduleAll() {
    for (int id = 0; id < kEvents; ++id) {
      handles_[std::size_t(id)] = sim_.Schedule(
          SimTime::Millis(double(id % 97)), [this, id] { sum_ += id; });
    }
  }
  void CancelHalf() {
    for (int id = 0; id < kEvents; id += 2) {
      handles_[std::size_t(id)].Cancel();
    }
  }
  std::uint64_t Run() { return sim_.Run(); }
  std::int64_t sum() const { return sum_; }

 private:
  Simulator sim_;
  std::vector<EventHandle> handles_;
  std::int64_t sum_ = 0;
};

class SimulatorAllocTest : public testing::Test {
 protected:
  void SetUp() override {
#ifdef DMAP_ALLOC_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer builds keep their own allocator";
#endif
    // Warm-up: grows the slots, the free list and the heap to size.
    batch_.ScheduleAll();
    batch_.Run();
  }

  EventBatch batch_;
};

TEST_F(SimulatorAllocTest, ScheduleAndRunAllocateNothingOnceWarm) {
  const std::size_t before = g_allocations;
  batch_.ScheduleAll();
  const std::uint64_t ran = batch_.Run();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(ran, std::uint64_t(kEvents));
}

TEST_F(SimulatorAllocTest, CancellingAllocatesNothingOnceWarm) {
  const std::int64_t warm_sum = batch_.sum();
  const std::size_t before = g_allocations;
  batch_.ScheduleAll();
  batch_.CancelHalf();
  const std::uint64_t ran = batch_.Run();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(ran, std::uint64_t(kEvents / 2));
  // Only the odd ids ran: 1 + 3 + ... + 9,999.
  EXPECT_EQ(batch_.sum() - warm_sum,
            std::int64_t(kEvents / 2) * (kEvents / 2));
}

}  // namespace
}  // namespace dmap
