// Event-driven execution of DMap lookups on the discrete-event kernel. The
// closed-form path in DMapService sums RTTs arithmetically; this wrapper
// plays the same exchange out as scheduled message events — probe sent,
// reply (found / missing) received, timeout fires for a failed AS, local
// and global resolutions racing — and reports completion through a
// callback. Property tests assert the two paths agree to floating-point
// accuracy, which validates the closed-form shortcut used by the big
// sweeps.
//
// With a ServingTier installed (SetServingTier), every probe additionally
// passes the destination's capacity model: the probe arrives after the
// one-way path, is admitted (service after an optional queue wait) or shed
// (no reply at all — the probe timeout fires and the PR-4 retry/backoff
// machinery takes over), and the reply returns after wait + service + the
// return path. With no tier the wrapper is bit-identical to the original
// infinite-capacity behaviour.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/dmap_service.h"
#include "core/resolver_cache.h"
#include "event/simulator.h"
#include "serve/serving_tier.h"

namespace dmap {

class EventDrivenLookup {
 public:
  // Both references must outlive the wrapper. `shard` is the service's
  // path-oracle shard this executor queries: executors driven concurrently
  // against one service need distinct shards (DMapService::Lookup's rule).
  EventDrivenLookup(Simulator& sim, DMapService& service, unsigned shard = 0)
      : sim_(&sim), service_(&service), shard_(shard) {}

  using Callback = std::function<void(const LookupResult&)>;

  // Installs the per-AS capacity model; nullptr (the default) restores the
  // infinite-capacity path exactly. The tier must outlive the wrapper and
  // must not be shared across concurrently running simulators.
  void SetServingTier(ServingTier* tier) { serving_ = tier; }
  ServingTier* serving_tier() const { return serving_; }

  // Installs a private resolver-side cache on this executor's lookup path:
  // a fresh cached copy at the querier answers after one intra-AS round
  // trip, before the local-replica race or any probe. The wrapper is
  // single-owner (one simulator loop drives it), so the cache's serial
  // Get/Put path is safe here. A disabled config is a no-op.
  void EnableCache(const CacheConfig& config);
  ResolverCache* cache() { return cache_.get(); }
  const ResolverCache* cache() const { return cache_.get(); }

  // Schedules the lookup to start `start_delay` from now; `done` fires at
  // the simulated completion time. The caller runs the simulator.
  void LookupAsync(const Guid& guid, AsId querier, SimTime start_delay,
                   Callback done);

  // Mobility update as events: the K replica writes (and the local-replica
  // move) go out in parallel; `done` fires when the slowest acknowledgement
  // returns (Section III-A's update-latency model). The mapping state
  // changes when the update *starts* — replicas apply writes on receipt,
  // and this wrapper does not model per-replica in-flight windows.
  using UpdateCallback = std::function<void(const UpdateResult&)>;
  void UpdateAsync(const Guid& guid, NetworkAddress na, SimTime start_delay,
                   UpdateCallback done);

  // Batched mobility handoff: every move must share one destination AS.
  // The mapping state changes when the batch *starts* (the closed form
  // applies all moves at once, bit-identical to sequential updates);
  // `done` fires at the batched completion time — one message wave over
  // the distinct destination ASes, finishing at the slowest round trip.
  using BatchCallback = std::function<void(const BatchUpdateResult&)>;
  void BatchUpdateAsync(
      const std::vector<std::pair<Guid, NetworkAddress>>& moves,
      SimTime start_delay, BatchCallback done);

 private:
  struct Flow;  // shared lookup state across the event chain

  void SendProbe(const std::shared_ptr<Flow>& flow, std::size_t index);
  // Timeout of retransmission `retry` for plan[index] fired: retransmit
  // with exponential backoff while budget remains, else fall through.
  void ProbeTimedOut(const std::shared_ptr<Flow>& flow, std::size_t index,
                     int retry);
  // One transmission to plan[index] at the current sim time: consults the
  // failure schedule (DMapService::IsFailedAt) at send time, so windows
  // that open or close mid-lookup are honoured — a replica that recovers
  // between retries answers the retransmission.
  void Transmit(const std::shared_ptr<Flow>& flow, std::size_t index,
                int retry);
  // Serving-tier variant of the live-replica exchange: arrival, admission,
  // delayed reply (or silence when shed).
  void TransmitServed(const std::shared_ptr<Flow>& flow, std::size_t index,
                      int retry);

  Simulator* sim_;
  DMapService* service_;
  unsigned shard_;
  ServingTier* serving_ = nullptr;
  std::unique_ptr<ResolverCache> cache_;
};

}  // namespace dmap
