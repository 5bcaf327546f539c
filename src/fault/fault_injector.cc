#include "fault/fault_injector.h"

#include <algorithm>

namespace dmap {

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed)
    : plan_((plan.Validate(), plan)), seed_(seed) {}

void FaultInjector::InstallSchedule(const AsGraph& graph,
                                    FailureView& view) const {
  plan_.CheckAses(graph);
  for (const CrashWindow& crash : plan_.crashes) {
    view.AddWindow(crash.as, crash.down_at, crash.up_at);
  }
  for (const CrashWindow& outage : plan_.outages) {
    for (const AsId as : CustomerCone(graph, outage.as)) {
      view.AddWindow(as, outage.down_at, outage.up_at);
    }
  }
  for (const PartitionWindow& cut : plan_.partitions) {
    view.AddPartition(cut.a, cut.b, cut.down_at, cut.up_at);
  }
}

std::vector<std::pair<SimTime, AsId>> FaultInjector::WipeSchedule() const {
  std::vector<std::pair<SimTime, AsId>> wipes;
  for (const CrashWindow& crash : plan_.crashes) {
    if (crash.wipe_storage) wipes.emplace_back(crash.down_at, crash.as);
  }
  std::sort(wipes.begin(), wipes.end());
  return wipes;
}

MessageFate FaultInjector::FateOf(std::uint64_t message_seq) const {
  MessageFate fate;
  if (!plan_.HasMessageFaults()) {
    fate.delays_ms.push_back(0.0);
    return fate;
  }
  // Counter-based stream: diffuse (seed, seq) through SplitMix64 and seed a
  // private xoshiro from it. The draw order below is fixed, so each
  // message's fate is independent of every other message's.
  SplitMix64 mixer(seed_ ^ (message_seq * 0x9e3779b97f4a7c15ULL));
  Rng rng(mixer.Next());
  if (rng.NextBernoulli(plan_.drop_probability)) {
    fate.dropped = true;
    return fate;
  }
  const int copies =
      rng.NextBernoulli(plan_.duplicate_probability) ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    fate.delays_ms.push_back(
        plan_.jitter_ms > 0.0 ? rng.NextDouble() * plan_.jitter_ms : 0.0);
  }
  return fate;
}

}  // namespace dmap
