#include "event/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

namespace dmap {
namespace {

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::Millis(100);
  const SimTime b = SimTime::Seconds(1);
  EXPECT_DOUBLE_EQ((a + b).millis(), 1100.0);
  EXPECT_DOUBLE_EQ((b - a).millis(), 900.0);
  EXPECT_DOUBLE_EQ((a * 2.5).millis(), 250.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(SimTime::Zero().millis(), 0.0);
  EXPECT_DOUBLE_EQ(b.seconds(), 1.0);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.Schedule(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.Schedule(SimTime::Millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 30.0);
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.Now().millis());
    if (times.size() < 5) sim.Schedule(SimTime::Millis(10), chain);
  };
  sim.Schedule(SimTime::Millis(10), chain);
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  Simulator sim;
  sim.Schedule(SimTime::Millis(10), [] {});
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(SimTime::Millis(5), [] {}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim.ScheduleAt(SimTime::Millis(nan), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.Schedule(SimTime::Millis(nan), [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.Run(), 0u);  // nothing was queued
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.Schedule(SimTime::Millis(10), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.Cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.Cancel());  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelUpdatesPendingCount) {
  Simulator sim;
  EventHandle a = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Schedule(SimTime::Millis(2), [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  a.Cancel();
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Empty());
  sim.Run();
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, CancelAfterExecutionIsNoop) {
  Simulator sim;
  EventHandle handle = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.Cancel());
}

TEST(SimulatorTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.Cancel());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> times;
  for (const double t : {10.0, 20.0, 30.0, 40.0}) {
    sim.Schedule(SimTime::Millis(t),
                 [&times, &sim] { times.push_back(sim.Now().millis()); });
  }
  EXPECT_EQ(sim.RunUntil(SimTime::Millis(25)), 2u);
  EXPECT_EQ(times, (std::vector<double>{10, 20}));
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_EQ(sim.RunUntil(SimTime::Millis(1000)), 2u);
  EXPECT_EQ(times.size(), 4u);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueDoesNotAdvanceClock) {
  Simulator sim;
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 0.0);
}

TEST(SimulatorTest, StopDiscardsFutureEvents) {
  Simulator sim;
  int executed = 0;
  sim.Schedule(SimTime::Millis(1), [&] {
    ++executed;
    sim.Stop();
  });
  sim.Schedule(SimTime::Millis(2), [&] { ++executed; });
  sim.Run();
  EXPECT_EQ(executed, 1);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, StopRetiresDiscardedHandles) {
  Simulator sim;
  EventHandle discarded = sim.Schedule(SimTime::Millis(5), [] {});
  EventHandle cancelled = sim.Schedule(SimTime::Millis(6), [] {});
  EXPECT_TRUE(cancelled.Cancel());
  sim.Stop();
  EXPECT_FALSE(discarded.pending());
  EXPECT_FALSE(discarded.Cancel());
  EXPECT_FALSE(cancelled.Cancel());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_TRUE(sim.Empty());
  // The simulator stays usable, and its count stays exact.
  EventHandle next = sim.Schedule(SimTime::Millis(1), [] {});
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_TRUE(next.Cancel());
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int executed = 0;
  sim.Schedule(SimTime::Millis(1), [&] { ++executed; });
  sim.Schedule(SimTime::Millis(2), [&] { ++executed; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(executed, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(executed, 2);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  double ran_at = -1;
  sim.Schedule(SimTime::Millis(5), [&] {
    sim.Schedule(SimTime::Zero(), [&] { ran_at = sim.Now().millis(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(ran_at, 5.0);
}

TEST(SimulatorTest, ScheduleRepeatingFiresEveryPeriodUntilFalse) {
  Simulator sim;
  std::vector<double> fired_at;
  sim.ScheduleRepeating(SimTime::Millis(10), [&] {
    fired_at.push_back(sim.Now().millis());
    return fired_at.size() < 3;  // third tick ends the series
  });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, ScheduleRepeatingInterleavesWithOneShotEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleRepeating(SimTime::Millis(10), [&] {
    order.push_back(0);
    return order.size() < 5;
  });
  sim.Schedule(SimTime::Millis(15), [&] { order.push_back(1); });
  sim.Run();
  // Ticks at 10/20/30/40 with the one-shot landing between the first two;
  // the tick that makes the count reach five returns false and ends it.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 0, 0}));
}

TEST(SimulatorTest, CancellingFirstTickStopsSeriesBeforeItStarts) {
  Simulator sim;
  int fired = 0;
  EventHandle first = sim.ScheduleRepeating(SimTime::Millis(10), [&] {
    ++fired;
    return true;  // would repeat forever
  });
  EXPECT_TRUE(first.Cancel());
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.Empty());
}

// Only queued ticks own a series: destroying the simulator while one is
// pending, or stopping it, must release everything the action captured.
TEST(SimulatorTest, PendingSeriesReleasesItsActionWithTheSimulator) {
  const auto sentinel = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.ScheduleRepeating(SimTime::Millis(10), [sentinel] { return true; });
    EXPECT_EQ(sentinel.use_count(), 2);
  }
  EXPECT_EQ(sentinel.use_count(), 1);

  Simulator sim;
  sim.ScheduleRepeating(SimTime::Millis(10), [sentinel] { return true; });
  sim.RunUntil(SimTime::Millis(35));  // three ticks, the fourth queued
  EXPECT_EQ(sentinel.use_count(), 2);
  sim.Stop();
  EXPECT_EQ(sentinel.use_count(), 1);

  EventHandle first =
      sim.ScheduleRepeating(SimTime::Millis(10), [sentinel] { return true; });
  EXPECT_TRUE(first.Cancel());
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(SimulatorTest, ScheduleRepeatingRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.ScheduleRepeating(SimTime::Zero(), [] { return false; }),
               std::invalid_argument);
  EXPECT_THROW(
      sim.ScheduleRepeating(SimTime::Millis(-1), [] { return false; }),
      std::invalid_argument);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    // Pseudo-random but deterministic times.
    const double t = double((i * 2654435761u) % 100000) / 100.0;
    sim.Schedule(SimTime::Millis(t), [&, t] {
      if (sim.Now().millis() < last) monotone = false;
      last = sim.Now().millis();
    });
  }
  EXPECT_EQ(sim.Run(), 10000u);
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace dmap
