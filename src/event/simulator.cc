#include "event/simulator.h"

#include <stdexcept>

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
  if (!record_ || record_->done) return false;
  record_->done = true;
  record_->action = nullptr;  // release captured state eagerly
  if (record_->cancelled_counter) ++*record_->cancelled_counter;
  return true;
}

EventHandle Simulator::ScheduleAt(SimTime when, std::function<void()> action) {
  if (!(when >= now_)) {  // also rejects NaN
    throw std::invalid_argument(
        "Simulator::ScheduleAt: time in the past or NaN");
  }
  auto record = std::make_shared<EventHandle::Record>();
  record->action = std::move(action);
  record->cancelled_counter = cancelled_count_;
  queue_.push(QueueEntry{when, next_seq_++, record});
  return EventHandle(record);
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
  while (!queue_.empty() && queue_.top().record->done) {
    queue_.pop();
    --*cancelled_count_;
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkipCancelled()) return false;
  QueueEntry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  entry.record->done = true;
  auto action = std::move(entry.record->action);
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
         queue_.top().when <= deadline) {
    Step();
    ++n;
  }
  return n;
}

void Simulator::Stop() {
  stop_requested_ = true;
  // A discarded event is retired like a cancelled one, so a handle to it
  // reads !pending() and its Cancel() is a no-op.
  while (!queue_.empty()) {
    EventHandle::Record& record = *queue_.top().record;
    record.done = true;
    record.action = nullptr;
    queue_.pop();
  }
  *cancelled_count_ = 0;
}

}  // namespace dmap
