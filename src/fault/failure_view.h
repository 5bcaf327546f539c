// FailureView: the single source of truth for "which ASs are down, when".
//
// Before this layer existed the reproduction carried two disjoint failure
// notions — DMapService kept a static failed-AS set consulted by the
// closed-form lookup math, while ProtocolNetwork kept its own set
// consulted when a message was *sent*. A scenario had to be configured
// twice and the two paths could silently disagree. FailureView unifies
// them: it stores, per AS, a set of half-open outage windows
// [down_at, up_at) in simulated time, and every execution path asks the
// same two questions:
//
//   * IsFailed(as)        — the static view (window covering time zero),
//                           what the closed-form path means by "failed";
//   * IsFailedAt(as, t)   — the scheduled view, what the event-driven and
//                           wire paths consult at probe/delivery time.
//
// A static failure (SetFailed / Fail(as)) is just a window spanning all of
// time, so a scenario configured once through either API is visible to
// both kinds of consumer. FaultInjector::InstallSchedule expands a
// declarative FaultPlan (crash/recover schedules, regional outages) into
// windows here.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "event/sim_time.h"
#include "topo/graph.h"

namespace dmap {

class FailureView {
 public:
  // Effectively "never recovers"; far beyond any simulated horizon.
  static constexpr SimTime kForever = SimTime::Millis(1e300);

  // One outage: the AS is unreachable for t in [down_at, up_at).
  struct Window {
    SimTime down_at = SimTime::Zero();
    SimTime up_at = kForever;
  };

  // Replaces the whole schedule with static failures (down for all time).
  // The FailureView equivalent of the legacy SetFailedAses call.
  void SetFailed(const std::vector<AsId>& ases);

  // Marks `as` down from `from` (default: all time) with no recovery.
  void Fail(AsId as, SimTime from = SimTime::Zero());

  // Closes every window of `as` still open at `at` (default: all of them).
  // The AS answers again for t >= `at`.
  void Recover(AsId as, SimTime at = SimTime::Zero());

  // Adds one outage window [down_at, up_at). Throws std::invalid_argument
  // if down_at > up_at.
  void AddWindow(AsId as, SimTime down_at, SimTime up_at);

  // Adds one pairwise network-partition window: messages between `a` and
  // `b` (either direction) are lost for t in [down_at, up_at) while both
  // ASs stay up and keep serving everyone else — the split-brain scenario
  // quorum writes must survive. Symmetric (the pair is stored unordered).
  // Throws std::invalid_argument if a == b or down_at > up_at.
  void AddPartition(AsId a, AsId b, SimTime down_at, SimTime up_at);

  void Clear() {
    windows_.clear();
    partitions_.clear();
  }

  // Static view: is `as` failed in the window covering time zero? This is
  // what the closed-form (timeless) resolution paths consult.
  bool IsFailed(AsId as) const { return IsFailedAt(as, SimTime::Zero()); }

  // Scheduled view: is `as` inside an outage window at simulated time `t`?
  bool IsFailedAt(AsId as, SimTime t) const;

  // Is the (a, b) pair inside a partition window at time `t`? Symmetric in
  // its arguments; the wire path consults this at delivery time, so a
  // message in flight when the partition heals still arrives.
  bool IsPartitionedAt(AsId a, AsId b, SimTime t) const;

  // True when any partition window is registered.
  bool HasPartitions() const { return !partitions_.empty(); }

  // All ASs failed at `t`, ascending — feedable straight into the legacy
  // SetFailedAses of any backend, which is how the property tests assert
  // the closed-form and event-driven paths agree on failure timings.
  std::vector<AsId> FailedAt(SimTime t) const;

  // True when no window (outage or partition) is registered at all.
  bool Empty() const { return windows_.empty() && partitions_.empty(); }

  // True when some AS has a window that starts after time zero or ends
  // before forever — i.e. the schedule is genuinely time-varying and the
  // static view is an approximation.
  bool TimeVarying() const;

 private:
  // Ordered map: FailedAt() iterates it into exported/asserted output, and
  // unordered iteration there would be run-dependent.
  std::map<AsId, std::vector<Window>> windows_;
  // Partition windows keyed by the unordered pair (min, max), so lookups
  // are symmetric and iteration order is deterministic.
  std::map<std::pair<AsId, AsId>, std::vector<Window>> partitions_;
};

}  // namespace dmap
