// The write core every DMap executor drives (Sections III-A and III-D),
// free of I/O like core/lookup_flow.h. A write goes to all of its
// destinations in parallel, one slot each, and completes by one rule:
//
//   * a slot resolves once, by its ack or by its stand-in timeout
//     (StandInTimeoutMs), so every write completes;
//   * an applied ack counts toward W at most once per slot, late acks
//     included, so a duplicated ack cannot inflate W;
//   * W > 1: success at the W-th applied ack (the local copy is an instant
//     one), quorum failure once every slot resolved short of W;
//   * W <= 1: completion once every slot resolved, success unconditional
//     (the paper's fire-and-wait-all write).
//
// ProtocolNetwork drives WriteFlow with timers and wire messages;
// DMapService::AckLatency prices the same rule in closed form.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/retry_policy.h"
#include "topo/graph.h"

namespace dmap {

// Resolves a configured write/read quorum against `n` participating
// replicas: 0 selects a majority (n/2 + 1), any other value is clamped to
// [1, n].
inline int ResolveQuorum(int configured, int n) {
  if (n < 1) return 1;
  if (configured == 0) return n / 2 + 1;
  return configured < 1 ? 1 : (configured > n ? n : configured);
}

// A write's W: its participants are the global replicas plus the local
// copy.
inline int WriteQuorum(int configured, std::size_t replicas,
                       bool local_replica) {
  return ResolveQuorum(configured, int(replicas) + (local_replica ? 1 : 0));
}

// The local copy is written in place: its applied ack is instant.
inline constexpr double kLocalAckMs = 0.0;

// How long a slot waits for an ack due after `rtt_ms` before its timeout
// stands in: the first adaptive timeout, so a slow-but-alive replica is
// never written off before its ack can arrive.
inline double StandInTimeoutMs(double base_timeout_ms, double backoff,
                               double rtt_ms) {
  return AdaptiveTimeoutMs(base_timeout_ms, 0, backoff, rtt_ms);
}

// Slot state and completion rule of one write.
class WriteFlow {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  enum class Verdict {
    kPending,       // nothing to report yet
    kCompleted,     // W <= 1: every slot resolved
    kCommitted,     // W > 1: the W-th applied ack landed
    kQuorumFailed,  // W > 1: every slot resolved short of W
  };

  WriteFlow() = default;
  // `quorum` is the resolved W; `local_applied` counts the local copy.
  WriteFlow(int quorum, bool local_applied) { Reset(quorum, local_applied); }
  // Starts the flow over for a new write, keeping the slot storage.
  void Reset(int quorum, bool local_applied) {
    quorum_ = quorum;
    applied_ = local_applied ? 1 : 0;
    outstanding_ = 0;
    reported_ = false;
    slots_.clear();
  }

  // Opens a slot for the write to `host`; returns its index.
  std::size_t AddSlot(AsId host);
  // An ack from `host`: resolves that host's first unresolved slot and
  // returns it, or kNone when the ack is late (a duplicate, or its slot
  // timed out).
  std::size_t Ack(AsId host, bool applied);
  // The stand-in timeout of `slot` fired; false if an ack resolved it.
  bool TimedOut(std::size_t slot);

  // Every slot resolved: no ack can change the write any more.
  bool resolved() const { return outstanding_ == 0; }
  // The verdict, once: kPending before it is reached and after it is taken.
  Verdict TakeVerdict();

 private:
  struct Slot {
    AsId host = kInvalidAs;
    bool resolved = false;
    bool counted = false;  // its applied ack counted toward W
  };

  void Count(Slot& slot, bool applied);

  int quorum_ = 1;
  int applied_ = 0;
  std::size_t outstanding_ = 0;
  bool reported_ = false;
  std::vector<Slot> slots_;
};

}  // namespace dmap
