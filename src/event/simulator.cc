#include "event/simulator.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace dmap {
namespace {

// One tick of a ScheduleRepeating series. Copyable: each queued event owns
// its own copy, and only the action is shared between them, so once no
// tick is queued (the series ended, was cancelled, or the simulator was
// stopped or destroyed) nothing keeps the action alive.
struct RepeatingTick {
  Simulator* sim;
  SimTime period;
  std::shared_ptr<std::function<bool()>> action;

  void operator()() const {
    if ((*action)()) sim->Schedule(period, *this);
  }
};

}  // namespace

bool EventHandle::Cancel() {
  if (!pending()) return false;
  // The captures are released when `action` leaves scope, after the
  // simulator's bookkeeping is consistent again.
  const std::function<void()> action = sim_->Retire(slot_);
  ++sim_->cancelled_;
  return true;
}

std::function<void()> Simulator::Retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> action = std::exchange(s.action, nullptr);
  ++s.generation;
  free_slots_.push_back(slot);
  return action;
}

EventHandle Simulator::ScheduleAt(SimTime when, std::function<void()> action) {
  if (!(when >= now_)) {  // also rejects NaN
    throw std::invalid_argument(
        "Simulator::ScheduleAt: time in the past or NaN");
  }
  std::uint32_t slot = std::uint32_t(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  queue_.push_back(QueueEntry{when, next_seq_++, slot, s.generation});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return EventHandle(this, slot, s.generation);
}

EventHandle Simulator::ScheduleRepeating(SimTime period,
                                         std::function<bool()> action) {
  if (period <= SimTime::Zero()) {
    throw std::invalid_argument(
        "Simulator::ScheduleRepeating: period must be positive");
  }
  // Each tick reschedules a copy of itself while the action keeps
  // returning true.
  return Schedule(period,
                  RepeatingTick{this, period,
                                std::make_shared<std::function<bool()>>(
                                    std::move(action))});
}

bool Simulator::SkipCancelled() {
  while (!queue_.empty() &&
         !Live(queue_.front().slot, queue_.front().generation)) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    --cancelled_;
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkipCancelled()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const QueueEntry entry = queue_.back();
  queue_.pop_back();
  now_ = entry.when;
  // Retired before it runs: the action may schedule into this very slot,
  // and a handle to the running event already reads !pending().
  const std::function<void()> action = Retire(entry.slot);
  ++executed_;
  action();
  return true;
}

std::uint64_t Simulator::Run() {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && Step()) ++n;
  return n;
}

std::uint64_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && SkipCancelled() &&
         queue_.front().when <= deadline) {
    Step();
    ++n;
  }
  return n;
}

void Simulator::Stop() {
  stop_requested_ = true;
  // A discarded event is retired like a cancelled one, so a handle to it
  // reads !pending() and its Cancel() is a no-op.
  for (const QueueEntry& entry : queue_) {
    if (Live(entry.slot, entry.generation)) Retire(entry.slot);
  }
  queue_.clear();
  cancelled_ = 0;
}

}  // namespace dmap
