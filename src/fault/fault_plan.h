// FaultPlan: a declarative description of everything that goes wrong in a
// chaos run. Plans are plain `key = value` files (common/config.h syntax,
// the same format the experiment runner uses), so a scenario can live under
// configs/ next to the experiment configs and be byte-identical to rerun:
//
//   # message-level faults, applied per message by the FaultInjector
//   drop_probability      = 0.05     # each message vanishes with p
//   duplicate_probability = 0.02     # each delivered message arrives twice
//   jitter_ms             = 10.0     # uniform [0, jitter) extra delay
//
//   # per-AS crash/recover schedule in sim time; `inf` = never recovers.
//   # Crashed ASs lose their in-memory mapping store (wiped at down_at);
//   # recovery therefore brings an *empty* replica back — the case the
//   # lookup-triggered re-replication repairs.
//   crash  = 12:100:500, 44:0:inf
//
//   # correlated regional outages: the named AS goes down together with
//   # its customer cone (see CustomerCone below) for the window.
//   outage = 7:200:800
//
//   # pairwise network partitions: messages between the two named ASs are
//   # lost (both directions) for the window while both stay up and keep
//   # serving everyone else — the split-brain case quorum writes survive.
//   partition = 3|9:100:400
//
// The schedule side is expanded into FailureView windows and store-wipe
// events by FaultInjector::InstallSchedule; the probabilistic side is
// evaluated per message by FaultInjector::FateOf, deterministically from
// the plan seed.
#pragma once

#include <string>
#include <vector>

#include "event/sim_time.h"
#include "fault/failure_view.h"
#include "topo/graph.h"

namespace dmap {

// One scheduled outage of a single AS. `wipe_storage` models a process
// crash losing the in-memory store (true for `crash =` entries); regional
// outages default to false — the routers are unreachable but the mapping
// servers keep their state, the Section III-D-3 scenario.
struct CrashWindow {
  AsId as = kInvalidAs;
  SimTime down_at = SimTime::Zero();
  SimTime up_at = FailureView::kForever;
  bool wipe_storage = true;
};

// One pairwise partition: the link between `a` and `b` drops everything
// for t in [down_at, up_at). Symmetric; neither AS is failed — they just
// cannot hear each other, so a write quorum must be met without crossing
// the cut.
struct PartitionWindow {
  AsId a = kInvalidAs;
  AsId b = kInvalidAs;
  SimTime down_at = SimTime::Zero();
  SimTime up_at = FailureView::kForever;
};

struct FaultPlan {
  // Per-message probabilities, evaluated independently per message.
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  // Extra one-way delivery delay, uniform in [0, jitter_ms).
  double jitter_ms = 0.0;

  // Per-AS crash/recover schedule (storage wiped at down_at).
  std::vector<CrashWindow> crashes;
  // Correlated outages: each entry fails the AS plus its customer cone.
  std::vector<CrashWindow> outages;
  // Pairwise partition windows (both endpoints stay up).
  std::vector<PartitionWindow> partitions;

  bool HasMessageFaults() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           jitter_ms > 0.0;
  }

  // Throws std::invalid_argument naming the offending field when the plan
  // is inconsistent (probability outside [0, 1], negative jitter, a window
  // with down_at > up_at).
  void Validate() const;

  // Parsers; both Validate() before returning, and throw
  // std::invalid_argument naming the first key no field reads.
  static FaultPlan ParseString(const std::string& text);
  static FaultPlan ParseFile(const std::string& path);
};

// Deterministic approximation of an AS's customer cone on the undirected
// latency graph (which carries no provider/customer annotations): the AS
// itself plus every neighbor of strictly lower degree — in the jellyfish
// model, stubs and small regionals hang off their higher-degree provider,
// so a provider outage takes them off the map too. Sorted ascending.
std::vector<AsId> CustomerCone(const AsGraph& graph, AsId center);

}  // namespace dmap
