// Discrete-event simulation kernel. Events are closures executed at a
// scheduled simulated time; ties break by scheduling order (FIFO), which
// keeps runs deterministic. Used here for the timeout-and-retry logic of
// DMap lookups: the timeout event is cancelled when the reply arrives first.
//
// Scheduling and running an event allocate nothing once the simulator is
// warm. Each event's action lives in a reusable slot; the binary heap holds
// trivially copyable {time, seq, slot, generation} entries. Running,
// cancelling or stopping an event retires its slot: the action is cleared,
// the slot's generation is bumped and the slot goes back on the free list.
// A heap entry or handle whose generation no longer matches its slot names
// a retired event, so cancelled entries are skipped lazily when they reach
// the top, and a handle never touches an event that reused its slot.
// Actions whose captures fit std::function's inline buffer (16 bytes,
// trivially copyable, e.g. `[this, id]`) are stored without allocating.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "event/sim_time.h"

namespace dmap {

class Simulator;

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Copyable: all copies refer to the same event. A handle
// must not outlive its simulator (reading or cancelling it then is
// undefined).
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither run nor been cancelled.
  bool pending() const;

  // Cancels the event if still pending; returns true if this call cancelled
  // it (false if already run/cancelled or the handle is inert).
  bool Cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
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
  std::size_t PendingEvents() const { return queue_.size() - cancelled_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  friend class EventHandle;

  struct Slot {
    std::function<void()> action;
    std::uint32_t generation = 0;
  };
  struct QueueEntry {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t slot;
    std::uint32_t generation;
  };
  // Heap order for std::push_heap/pop_heap: the earliest (when, seq) on top.
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool Live(std::uint32_t slot, std::uint32_t generation) const {
    return slots_[slot].generation == generation;
  }
  // Clears the slot's action, bumps its generation and frees it; returns
  // the action, so the caller decides when the captures are released.
  std::function<void()> Retire(std::uint32_t slot);
  // Pops cancelled entries off the top; returns false if queue is empty.
  bool SkipCancelled();

  SimTime now_ = SimTime::Zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Entries in the heap whose event was cancelled, so PendingEvents() is
  // exact in O(1).
  std::size_t cancelled_ = 0;
  bool stop_requested_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<QueueEntry> queue_;  // a binary heap under Later
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->Live(slot_, generation_);
}

}  // namespace dmap
