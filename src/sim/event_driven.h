// Event-driven execution of DMap lookups on the discrete-event kernel. The
// closed-form path in DMapService sums RTTs arithmetically; this wrapper
// plays the same exchange out as scheduled message events — probe sent,
// reply (found / missing) received, timeout fires for a failed AS, local
// and global resolutions racing — and reports completion through a
// callback. The walk is one LookupFlow stream (core/lookup_flow.h) over
// DMapService::Plan. Property tests assert the two paths agree to
// floating-point accuracy, which validates the closed-form shortcut used
// by the big sweeps.
//
// This executor runs lookups only: updates and the resolver cache live in
// DMapService, which every mobility and cache workload drives directly.
// It is the one executor that models serving capacity, as a hook on the
// live-replica exchange. With a ServingTier installed (SetServingTier),
// every probe additionally passes the destination's capacity model: the
// probe arrives after the one-way path, is admitted (service after an
// optional queue wait) or shed (no reply at all — the adaptive timeout
// fires and the retry/backoff machinery takes over), and the reply
// returns after wait + service + the return path. A replica that is down
// at send time costs the plain policy timeout (fault/retry_policy.h).
// With no tier the wrapper is bit-identical to the original
// infinite-capacity behaviour.
#pragma once

#include <functional>
#include <memory>

#include "core/dmap_service.h"
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

  // Schedules the lookup to start `start_delay` from now; `done` fires at
  // the simulated completion time. The caller runs the simulator. Throws
  // std::invalid_argument, before scheduling anything, when `querier` is
  // not an AS of the service's graph.
  void LookupAsync(const Guid& guid, AsId querier, SimTime start_delay,
                   Callback done);

 private:
  struct Flow;  // shared lookup state across the event chain

  // Claims the next replica and transmits to it, or reports the failure
  // once the plan is exhausted.
  void SendProbe(const std::shared_ptr<Flow>& flow);
  // Retransmits with backoff while budget remains, else falls through.
  void ProbeTimedOut(const std::shared_ptr<Flow>& flow, std::size_t index,
                     double timeout_ms);
  // One transmission to the stream's current replica at the current sim
  // time: consults the failure schedule (DMapService::IsFailedAt) at send
  // time, so windows that open or close mid-lookup are honoured — a
  // replica that recovers between retries answers the retransmission.
  void Transmit(const std::shared_ptr<Flow>& flow);
  // Serving-tier variant of the live-replica exchange: arrival, admission,
  // delayed reply (or silence when shed).
  void TransmitServed(const std::shared_ptr<Flow>& flow);

  Simulator* sim_;
  DMapService* service_;
  unsigned shard_;
  ServingTier* serving_ = nullptr;
};

}  // namespace dmap
