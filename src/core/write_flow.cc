#include "core/write_flow.h"

namespace dmap {

std::size_t WriteFlow::AddSlot(AsId host) {
  slots_.push_back(Slot{host});
  ++outstanding_;
  return slots_.size() - 1;
}

std::size_t WriteFlow::Ack(AsId host, bool applied) {
  Slot* late = nullptr;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (slot.host != host) continue;
    if (!slot.resolved) {
      slot.resolved = true;
      --outstanding_;
      Count(slot, applied);
      return s;
    }
    if (late == nullptr && !slot.counted) late = &slot;
  }
  // A late applied ack still proves the replica holds the write.
  if (late != nullptr) Count(*late, applied);
  return kNone;
}

bool WriteFlow::TimedOut(std::size_t slot) {
  if (slots_[slot].resolved) return false;
  slots_[slot].resolved = true;
  --outstanding_;
  return true;
}

WriteFlow::Verdict WriteFlow::TakeVerdict() {
  if (reported_) return Verdict::kPending;
  if (quorum_ > 1 && applied_ >= quorum_) {
    reported_ = true;
    return Verdict::kCommitted;
  }
  if (outstanding_ != 0) return Verdict::kPending;
  reported_ = true;
  return quorum_ > 1 ? Verdict::kQuorumFailed : Verdict::kCompleted;
}

void WriteFlow::Count(Slot& slot, bool applied) {
  if (!applied || slot.counted) return;
  slot.counted = true;
  ++applied_;
}

}  // namespace dmap
