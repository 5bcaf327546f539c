#include "sim/event_driven.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/lookup_flow.h"
#include "fault/retry_policy.h"

namespace dmap {

struct EventDrivenLookup::Flow {
  Guid guid;
  AsId querier = kInvalidAs;
  std::vector<PlannedProbe> plan;
  Callback done;
  SimTime started;
  LookupFlow core;  // one probe stream over the plan
  int sheds = 0;    // probes rejected by the serving tier
  EventHandle local_reply;    // cancelled if the global path wins first
  EventHandle probe_timeout;  // armed per transmission on the serving path

  void Complete(Simulator& sim, LookupResult result) {
    if (!core.Complete()) return;
    local_reply.Cancel();
    probe_timeout.Cancel();
    result.latency_ms = (sim.Now() - started).millis();
    result.attempts = core.attempts();
    done(result);
  }
};

void EventDrivenLookup::LookupAsync(const Guid& guid, AsId querier,
                                    SimTime start_delay, Callback done) {
  if (querier >= service_->oracle().graph().num_nodes()) {
    throw std::invalid_argument("LookupAsync: unknown querier AS");
  }
  auto flow = std::make_shared<Flow>();
  flow->guid = guid;
  flow->querier = querier;
  flow->done = std::move(done);

  sim_->Schedule(start_delay, [this, flow] {
    flow->started = sim_->Now();

    flow->plan = service_->Plan(flow->guid, flow->querier, shard_);
    flow->core = LookupFlow(flow->plan.size(), /*streams=*/1,
                            service_->options().probe_retries);

    // Local resolution races the global one. The local replica is the
    // querier's own process — it does not pass the serving tier, which
    // models the shared mapping-server fleet.
    if (const std::optional<LocalReply> local = LocalReply::Race(
            service_->options(), service_->oracle().graph(), flow->querier,
            !service_->IsFailedAt(flow->querier, sim_->Now()),
            [&] { return service_->StoreLookup(flow->querier, flow->guid); })) {
      flow->local_reply = sim_->Schedule(
          SimTime::Millis(local->latency_ms), [this, flow, local = *local] {
            LookupResult result;
            local.Serve(result);
            flow->Complete(*sim_, result);
          });
    }

    SendProbe(flow);
  });
}

void EventDrivenLookup::SendProbe(const std::shared_ptr<Flow>& flow) {
  if (flow->core.completed()) return;
  if (!flow->core.Advance(0)) {
    // Every replica missed, timed out, or shed us: report the failure at
    // the time the last reply came back.
    LookupResult result;
    result.admission = flow->sheds > 0 ? AdmissionOutcome::kShed
                                       : AdmissionOutcome::kServed;
    flow->Complete(*sim_, result);
    return;
  }
  Transmit(flow);
}

void EventDrivenLookup::Transmit(const std::shared_ptr<Flow>& flow) {
  if (flow->core.completed()) return;
  const LookupFlow::Stream& stream = flow->core.stream(0);
  const std::size_t index = stream.index;
  const auto [host, rtt, stored_address] = flow->plan[index];

  if (service_->IsFailedAt(host, sim_->Now())) {
    // No reply will come, and the failure schedule says so at send time:
    // the policy timeout triggers a retransmission (with exponential
    // backoff) or moves us to the next replica.
    const double timeout_ms = TimeoutForAttemptMs(
        service_->options().failure_timeout_ms, stream.retry,
        service_->options().retry_backoff);
    sim_->Schedule(SimTime::Millis(timeout_ms),
                   [this, flow, index, timeout_ms] {
                     ProbeTimedOut(flow, index, timeout_ms);
                   });
    return;
  }

  if (serving_ != nullptr) {
    TransmitServed(flow);
    return;
  }

  const MappingEntry* entry = service_->StoreLookup(host, flow->guid);
  if (entry != nullptr) {
    const MappingEntry found = *entry;
    const AsId serving = host;
    sim_->Schedule(SimTime::Millis(rtt), [this, flow, found, serving] {
      LookupResult result;
      result.found = true;
      result.nas = found.nas;
      result.serving_as = serving;
      flow->Complete(*sim_, result);
    });
  } else {
    // "GUID missing" reply arrives a full round trip later; then the next
    // replica is probed.
    sim_->Schedule(SimTime::Millis(rtt), [this, flow] { SendProbe(flow); });
  }
}

void EventDrivenLookup::TransmitServed(const std::shared_ptr<Flow>& flow) {
  const LookupFlow::Stream& stream = flow->core.stream(0);
  const std::size_t index = stream.index;
  const auto [host, rtt, stored_address] = flow->plan[index];

  // A capacity-limited replica may never answer (shed) or answer late
  // (queued past the budget), so every transmission arms the adaptive
  // timeout the wire path uses.
  const double timeout_ms = AdaptiveTimeoutMs(
      service_->options().failure_timeout_ms, stream.retry,
      service_->options().retry_backoff, rtt);
  flow->probe_timeout = sim_->Schedule(
      SimTime::Millis(timeout_ms),
      [this, flow, index, timeout_ms] {
        ProbeTimedOut(flow, index, timeout_ms);
      });

  // The probe arrives at the replica after the one-way path and meets the
  // admission machinery there, at arrival time.
  sim_->Schedule(SimTime::Millis(0.5 * rtt), [this, flow, index, host = host,
                                              rtt = rtt] {
    if (flow->core.completed()) return;
    const AdmitResult admit = serving_->Admit(host, sim_->Now());
    if (admit.outcome == AdmissionOutcome::kShed) {
      // Silence: the client's timeout fires, then retries or falls through
      // to the next replica — overload looks exactly like a failure.
      ++flow->sheds;
      return;
    }
    const MappingEntry* entry = service_->StoreLookup(host, flow->guid);
    const std::optional<MappingEntry> found =
        entry != nullptr ? std::optional<MappingEntry>(*entry)
                         : std::nullopt;
    sim_->Schedule(
        SimTime::Millis(admit.DelayMs() + 0.5 * rtt),
        [this, flow, index, host, found, admit] {
          if (flow->core.completed()) return;
          if (found.has_value()) {
            // A found reply resolves the lookup even when its probe already
            // timed out (the late-reply semantics of the wire executor).
            LookupResult result;
            result.found = true;
            result.nas = found->nas;
            result.serving_as = host;
            result.queue_delay_ms = admit.queue_delay_ms;
            result.admission = admit.outcome;
            flow->Complete(*sim_, result);
            return;
          }
          // A late miss: the stream already moved past this replica.
          if (flow->core.Awaiting(index) == LookupFlow::kNone) return;
          flow->probe_timeout.Cancel();
          SendProbe(flow);
        });
  });
}

void EventDrivenLookup::ProbeTimedOut(const std::shared_ptr<Flow>& flow,
                                      std::size_t index, double timeout_ms) {
  switch (flow->core.TimedOut(0, index, timeout_ms)) {
    case LookupFlow::Timeout::kStale:
      return;
    case LookupFlow::Timeout::kRetransmit:
      Transmit(flow);
      return;
    case LookupFlow::Timeout::kGiveUp:
      SendProbe(flow);
      return;
  }
}

}  // namespace dmap
