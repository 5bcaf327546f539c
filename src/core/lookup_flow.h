// The lookup core every DMap executor drives (Section III-C), free of I/O
// — no simulator, no store, no codec. PlanProbes is the one replica order;
// LookupFlow is the probe-stream state machine: replies and timeouts go
// in, and it answers whether to ignore, retransmit, or claim the next
// replica. One stream is the paper's sequential walk; R streams over one
// claim cursor are the wire protocol's read quorum. The transports keep
// what is their own: DMapService sums the walk in closed form,
// EventDrivenLookup schedules it as events (serving admission is its
// hook), ProtocolNetwork sends wire messages (request ids, repair, traces).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ipv4.h"
#include "common/thread_annotations.h"
#include "core/hole_resolver.h"
#include "topo/graph.h"
#include "topo/shortest_path.h"

namespace dmap {

enum class ReplicaSelection {
  kLowestRtt,   // assumes RTT estimates to all ASs (paper's main results)
  kFewestHops,  // uses only BGP hop counts ("similar results, marginally
                // increased latencies")
};

// One replica of a lookup's probe plan.
struct PlannedProbe {
  AsId host = kInvalidAs;
  double rtt = 0.0;  // querier <-> host round trip, ms
  // Where Algorithm 1 hashed this replica; repair re-inserts under it.
  Ipv4Address stored_address;
};

// Orders a GUID's resolved replicas into the plan a lookup from `querier`
// follows, lowest RTT (host id breaks ties) or fewest hops first. Either
// way each probe costs its real RTT. `shard` selects the oracle shard.
std::vector<PlannedProbe> PlanProbes(std::span<const HostResolution> replicas,
                                     AsId querier, ReplicaSelection selection,
                                     PathOracle& oracle, unsigned shard = 0)
    REQUIRES_SHARD(shard);
// The same plan, written over `plan` so a reused buffer keeps its capacity.
void PlanProbesInto(std::span<const HostResolution> replicas, AsId querier,
                    ReplicaSelection selection, PathOracle& oracle,
                    std::vector<PlannedProbe>& plan, unsigned shard = 0)
    REQUIRES_SHARD(shard);

// Probe state of one lookup: the claim cursor, and per stream the index it
// awaits, its retransmissions and the timeouts it has waited out there.
class LookupFlow {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Stream {
    std::size_t index = kNone;  // plan index awaited; kNone = stopped
    int retry = 0;              // retransmissions of plan[index] so far
    double charged_ms = 0.0;    // timeouts accrued on plan[index]
  };

  enum class Timeout {
    kStale,       // the stream moved past the probe, or the lookup is done
    kRetransmit,  // budget left: send plan[index] again (retry counted)
    kGiveUp,      // budget spent: charged_ms holds the whole wait
  };

  LookupFlow() = default;
  // No stream awaits anything until its first Advance.
  LookupFlow(std::size_t plan_size, std::size_t streams, int probe_retries) {
    Reset(plan_size, streams, probe_retries);
  }
  // Starts the flow over for a new lookup, keeping the stream storage.
  void Reset(std::size_t plan_size, std::size_t streams, int probe_retries) {
    plan_size_ = plan_size;
    cursor_ = 0;
    probe_retries_ = probe_retries;
    completed_ = false;
    streams_.assign(streams, Stream{});
  }

  // Seals the lookup; true only on the first call, so the losing racer
  // (local reply, global reply, exhaustion) is dropped.
  bool Complete() {
    if (completed_) return false;
    completed_ = true;
    return true;
  }
  bool completed() const { return completed_; }

  // Replicas claimed so far. Retransmissions do not count: the closed
  // form has none, and the executors agree with it.
  int attempts() const { return int(cursor_); }

  const Stream& stream(std::size_t s) const { return streams_[s]; }

  // Stream `s` claims the next unclaimed plan index (retry 0, nothing
  // charged); false, stopping the stream, once every index is claimed.
  bool Advance(std::size_t s);
  // Stops stream `s` without claiming: its replica answered.
  void Stop(std::size_t s) { streams_[s].index = kNone; }

  // The stream whose current probe is plan[index], or kNone when a reply
  // for that index is late (its stream timed out past it, or stopped).
  std::size_t Awaiting(std::size_t index) const;
  // True while some stream still awaits a reply.
  bool Probing() const;

  // The `timeout_ms` timer stream `s` armed for plan[index] fired; the
  // wait is charged to the stream unless the timer is stale.
  Timeout TimedOut(std::size_t s, std::size_t index, double timeout_ms);

 private:
  std::size_t plan_size_ = 0;
  std::size_t cursor_ = 0;  // next unclaimed plan index
  int probe_retries_ = 0;
  bool completed_ = false;
  std::vector<Stream> streams_;
};

}  // namespace dmap
