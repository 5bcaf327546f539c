#include "core/lookup_flow.h"

#include <algorithm>

namespace dmap {

std::vector<PlannedProbe> PlanProbes(std::span<const HostResolution> replicas,
                                     AsId querier, ReplicaSelection selection,
                                     PathOracle& oracle, unsigned shard) {
  std::vector<PlannedProbe> plan;
  plan.reserve(replicas.size());
  for (const HostResolution& r : replicas) {
    plan.push_back(PlannedProbe{r.host, 0.0, r.stored_address});
  }
  const auto by_rtt_then_host = [](const PlannedProbe& a,
                                   const PlannedProbe& b) {
    return a.rtt != b.rtt ? a.rtt < b.rtt : a.host < b.host;
  };
  if (selection == ReplicaSelection::kLowestRtt) {
    for (PlannedProbe& probe : plan) {
      probe.rtt = oracle.RttMs(querier, probe.host, shard);
    }
    std::sort(plan.begin(), plan.end(), by_rtt_then_host);
    return plan;
  }
  // The rtt field holds the (exact) hop count while sorting, then the RTT
  // the probe costs.
  for (PlannedProbe& probe : plan) {
    probe.rtt = double(oracle.Hops(querier, probe.host, shard));
  }
  std::sort(plan.begin(), plan.end(), by_rtt_then_host);
  for (PlannedProbe& probe : plan) {
    probe.rtt = oracle.RttMs(querier, probe.host, shard);
  }
  return plan;
}

bool LookupFlow::Advance(std::size_t s) {
  Stream& stream = streams_[s];
  stream = Stream{};
  if (cursor_ >= plan_size_) return false;
  stream.index = cursor_++;
  return true;
}

std::size_t LookupFlow::Awaiting(std::size_t index) const {
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    if (streams_[s].index == index) return s;
  }
  return kNone;
}

bool LookupFlow::Probing() const {
  return std::any_of(streams_.begin(), streams_.end(),
                     [](const Stream& s) { return s.index != kNone; });
}

LookupFlow::Timeout LookupFlow::TimedOut(std::size_t s, std::size_t index,
                                         double timeout_ms) {
  Stream& stream = streams_[s];
  if (completed_ || stream.index != index) return Timeout::kStale;
  stream.charged_ms += timeout_ms;
  if (stream.retry < probe_retries_) {
    ++stream.retry;
    return Timeout::kRetransmit;
  }
  return Timeout::kGiveUp;
}

}  // namespace dmap
