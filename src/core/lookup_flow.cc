#include "core/lookup_flow.h"

#include <algorithm>

namespace dmap {
namespace {

// plan[i].rtt = RttMs(querier, plan[i].host) for every probe, from one-to-K
// oracle queries over stack blocks of hosts.
void FillRtts(std::vector<PlannedProbe>& plan, AsId querier,
              PathOracle& oracle, unsigned shard) REQUIRES_SHARD(shard) {
  constexpr std::size_t kBlock = 32;
  AsId hosts[kBlock];
  double rtts[kBlock];
  for (std::size_t begin = 0; begin < plan.size(); begin += kBlock) {
    const std::size_t n = std::min(kBlock, plan.size() - begin);
    for (std::size_t i = 0; i < n; ++i) hosts[i] = plan[begin + i].host;
    oracle.RttsMs(querier, hosts, n, rtts, shard);
    for (std::size_t i = 0; i < n; ++i) plan[begin + i].rtt = rtts[i];
  }
}

}  // namespace

std::vector<PlannedProbe> PlanProbes(std::span<const HostResolution> replicas,
                                     AsId querier, ReplicaSelection selection,
                                     PathOracle& oracle, unsigned shard) {
  std::vector<PlannedProbe> plan;
  PlanProbesInto(replicas, querier, selection, oracle, plan, shard);
  return plan;
}

void PlanProbesInto(std::span<const HostResolution> replicas, AsId querier,
                    ReplicaSelection selection, PathOracle& oracle,
                    std::vector<PlannedProbe>& plan, unsigned shard) {
  plan.clear();
  plan.reserve(replicas.size());
  for (const HostResolution& r : replicas) {
    plan.push_back(PlannedProbe{r.host, 0.0, r.stored_address});
  }
  const auto by_rtt_then_host = [](const PlannedProbe& a,
                                   const PlannedProbe& b) {
    return a.rtt != b.rtt ? a.rtt < b.rtt : a.host < b.host;
  };
  if (selection == ReplicaSelection::kLowestRtt) {
    FillRtts(plan, querier, oracle, shard);
    std::sort(plan.begin(), plan.end(), by_rtt_then_host);
    return;
  }
  // The rtt field holds the (exact) hop count while sorting, then the RTT
  // the probe costs.
  for (PlannedProbe& probe : plan) {
    probe.rtt = double(oracle.Hops(querier, probe.host, shard));
  }
  std::sort(plan.begin(), plan.end(), by_rtt_then_host);
  FillRtts(plan, querier, oracle, shard);
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
