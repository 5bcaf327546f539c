// Discrete-event simulation kernel. Events are closures executed at a
// scheduled simulated time; ties break by scheduling order (FIFO), which
// keeps runs deterministic. Cancellation is supported through handles with
// lazy deletion, the standard technique for binary-heap event queues (used
// here for the timeout-and-retry logic of DMap lookups: the timeout event is
// cancelled when the reply arrives first).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "event/sim_time.h"

namespace dmap {

class Simulator;

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Copyable: all copies refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither run nor been cancelled.
  bool pending() const { return record_ && !record_->done; }

  // Cancels the event if still pending; returns true if this call cancelled
  // it (false if already run/cancelled or the handle is inert).
  bool Cancel();

 private:
  friend class Simulator;
  struct Record {
    std::function<void()> action;
    bool done = false;
    // Owned by the simulator; counts records that were cancelled while
    // still sitting in the queue, so PendingEvents() stays O(1).
    std::shared_ptr<std::size_t> cancelled_counter;
  };
  explicit EventHandle(std::shared_ptr<Record> record)
      : record_(std::move(record)) {}
  std::shared_ptr<Record> record_;
};

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `action` to run `delay` after the current time. Negative
  // and NaN delays are a programming error and throw.
  EventHandle Schedule(SimTime delay, std::function<void()> action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  // Schedules `action` at absolute time `when`; throws
  // std::invalid_argument unless when >= Now() (so NaN throws too).
  EventHandle ScheduleAt(SimTime when, std::function<void()> action);

  // Schedules `action` every `period` starting one period from now, for
  // as long as it returns true; a false return ends the series. The
  // returned handle refers to the first tick only — cancelling it stops
  // the series before it starts; after that, stop via the return value.
  // The action must terminate the series eventually: an unconditional
  // `return true` keeps the queue non-empty forever and Run() never
  // returns. Built for periodic maintenance with a stopping condition,
  // e.g. anti-entropy rounds that end when the workload phase is over.
  EventHandle ScheduleRepeating(SimTime period,
                                std::function<bool()> action);

  // Runs until the queue is empty. Returns the number of events executed.
  std::uint64_t Run();

  // Runs events with time <= `deadline`; the clock ends at the later of its
  // current value and the last executed event time (it does NOT jump to the
  // deadline if the queue drains first). Returns events executed.
  std::uint64_t RunUntil(SimTime deadline);

  // Executes exactly one event if available. Returns false if queue empty.
  bool Step();

  // Drops all pending events and requests Run()/RunUntil() to return after
  // the current event finishes. Handles to dropped events read as
  // cancelled: not pending, and Cancel() returns false.
  void Stop();

  bool Empty() const { return PendingEvents() == 0; }
  std::size_t PendingEvents() const {
    return queue_.size() - *cancelled_count_;
  }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct QueueEntry {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break
    std::shared_ptr<EventHandle::Record> record;

    bool operator>(const QueueEntry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // Pops cancelled entries off the top; returns false if queue is empty.
  bool SkipCancelled();

  SimTime now_ = SimTime::Zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::shared_ptr<std::size_t> cancelled_count_ =
      std::make_shared<std::size_t>(0);
  bool stop_requested_ = false;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace dmap
