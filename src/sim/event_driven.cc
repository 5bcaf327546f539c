#include "sim/event_driven.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "fault/retry_policy.h"

namespace dmap {

struct EventDrivenLookup::Flow {
  Guid guid;
  AsId querier = kInvalidAs;
  std::vector<std::pair<AsId, double>> plan;  // ordered (host, rtt)
  Callback done;
  SimTime started;
  int attempts = 0;
  bool completed = false;
  // Index of the probe currently awaited. A reply or timeout for an
  // earlier index is late: the lookup has already moved past it.
  std::size_t frontier = 0;
  int sheds = 0;  // probes rejected by the serving tier
  EventHandle local_reply;    // cancelled if the global path wins first
  EventHandle probe_timeout;  // armed per transmission on the serving path

  void Complete(Simulator& sim, LookupResult result) {
    if (completed) return;
    completed = true;
    local_reply.Cancel();
    probe_timeout.Cancel();
    result.latency_ms = (sim.Now() - started).millis();
    result.attempts = attempts;
    done(result);
  }
};

void EventDrivenLookup::EnableCache(const CacheConfig& config) {
  config.Validate();
  cache_ = config.enabled() ? std::make_unique<ResolverCache>(config)
                            : nullptr;
}

void EventDrivenLookup::LookupAsync(const Guid& guid, AsId querier,
                                    SimTime start_delay, Callback done) {
  auto flow = std::make_shared<Flow>();
  flow->guid = guid;
  flow->querier = querier;
  flow->done = std::move(done);

  sim_->Schedule(start_delay, [this, flow] {
    flow->started = sim_->Now();

    // Resolver-side cache: a fresh cached copy answers after one intra-AS
    // round trip and nothing — not even the local-replica race — runs. A
    // stale answer (behind the owner table's stamp) is still served; the
    // staleness is tallied, that is the measured trade.
    if (cache_ != nullptr) {
      if (const MappingEntry* cached =
              cache_->Get(flow->querier, flow->guid, sim_->Now())) {
        const MappingEntry hit = *cached;
        const double rtt =
            2.0 * service_->oracle().graph().IntraLatencyMs(flow->querier);
        sim_->Schedule(SimTime::Millis(rtt), [this, flow, hit] {
          if (service_->IsStaleStamp(flow->guid, hit.stamp())) {
            cache_->CountStaleServed();
          }
          LookupResult result;
          result.found = true;
          result.nas = hit.nas;
          result.serving_as = flow->querier;
          result.served_from_cache = true;
          flow->Complete(*sim_, result);
        });
        return;
      }
    }

    flow->plan = service_->ProbePlan(flow->guid, flow->querier, shard_);

    // Local resolution races the global one (Section III-C): a hit in the
    // querier's own store replies after one intra-AS round trip. The local
    // replica is the querier's own process — it does not pass the serving
    // tier, which models the shared mapping-server fleet.
    if (service_->options().local_replica &&
        !service_->IsFailedAt(flow->querier, sim_->Now())) {
      if (const MappingEntry* entry =
              service_->StoreLookup(flow->querier, flow->guid)) {
        const MappingEntry local = *entry;
        const double local_rtt =
            2.0 * service_->oracle().graph().IntraLatencyMs(flow->querier);
        flow->local_reply = sim_->Schedule(
            SimTime::Millis(local_rtt), [this, flow, local] {
              LookupResult result;
              result.found = true;
              result.nas = local.nas;
              result.serving_as = flow->querier;
              result.served_locally = true;
              flow->Complete(*sim_, result);
            });
      }
    }

    SendProbe(flow, 0);
  });
}

void EventDrivenLookup::UpdateAsync(const Guid& guid, NetworkAddress na,
                                    SimTime start_delay,
                                    UpdateCallback done) {
  sim_->Schedule(start_delay, [this, guid, na, done = std::move(done)] {
    UpdateResult result = service_->Update(guid, na);
    // The service invalidates its own shared cache inside WriteReplicas;
    // this wrapper's private cache follows the same coherence rule.
    if (cache_ != nullptr && cache_->config().invalidate_on_update) {
      cache_->Invalidate(guid);
    }
    // Acknowledgements from all replicas arrive in parallel; the closed
    // form already computed the completion time — slowest ack with the
    // quorum discipline off, W-th applied ack otherwise. When update
    // latency measurement is disabled on the service, compute the same
    // order statistic here from the oracle (fault-free: every replica
    // acks, the local copy instantly).
    double done_at = result.latency_ms;
    if (done_at < 0) {
      const DMapOptions& opts = service_->options();
      const int participants =
          int(result.replicas.size()) + (opts.local_replica ? 1 : 0);
      const int w = ResolveQuorum(opts.write_quorum, participants);
      if (w <= 1) {
        done_at = 0;
        for (const AsId host : result.replicas) {
          done_at = std::max(done_at,
                             service_->oracle().RttMs(na.as, host, shard_));
        }
      } else {
        std::vector<double> acks;
        acks.reserve(std::size_t(participants));
        if (opts.local_replica) acks.push_back(0.0);
        for (const AsId host : result.replicas) {
          acks.push_back(service_->oracle().RttMs(na.as, host, shard_));
        }
        std::sort(acks.begin(), acks.end());
        done_at = acks[std::size_t(w - 1)];
      }
      result.latency_ms = done_at;
    }
    sim_->Schedule(SimTime::Millis(done_at),
                   [result, done] { done(result); });
  });
}

void EventDrivenLookup::BatchUpdateAsync(
    const std::vector<std::pair<Guid, NetworkAddress>>& moves,
    SimTime start_delay, BatchCallback done) {
  sim_->Schedule(start_delay, [this, moves, done = std::move(done)] {
    BatchUpdateResult result = service_->BatchUpdate(moves);
    if (cache_ != nullptr && cache_->config().invalidate_on_update) {
      for (const auto& [guid, na] : moves) cache_->Invalidate(guid);
    }
    double done_at = result.latency_ms;
    if (done_at < 0) {
      // Update-latency measurement off on the service: the batched wave
      // completes at the slowest destination round trip (fault-free — the
      // legacy model), computed from the oracle like UpdateAsync does.
      done_at = 0;
      if (!moves.empty()) {
        const AsId src = moves.front().second.as;
        for (const UpdateResult& per : result.per_guid) {
          for (const AsId host : per.replicas) {
            done_at = std::max(done_at,
                               service_->oracle().RttMs(src, host, shard_));
          }
        }
      }
      result.latency_ms = done_at;
    }
    sim_->Schedule(SimTime::Millis(done_at),
                   [result, done] { done(result); });
  });
}

void EventDrivenLookup::SendProbe(const std::shared_ptr<Flow>& flow,
                                  std::size_t index) {
  if (flow->completed) return;
  flow->frontier = index;
  if (index >= flow->plan.size()) {
    // Every replica missed, timed out, or shed us: report the failure at
    // the time the last reply came back.
    LookupResult result;
    result.admission = flow->sheds > 0 ? AdmissionOutcome::kShed
                                       : AdmissionOutcome::kServed;
    flow->Complete(*sim_, result);
    return;
  }
  // `attempts` counts replicas probed, not transmissions — the closed form
  // has no notion of retransmission, and the two must agree.
  ++flow->attempts;
  Transmit(flow, index, /*retry=*/0);
}

void EventDrivenLookup::Transmit(const std::shared_ptr<Flow>& flow,
                                 std::size_t index, int retry) {
  if (flow->completed) return;
  const auto [host, rtt] = flow->plan[index];

  if (service_->IsFailedAt(host, sim_->Now())) {
    // No reply will come; the timeout triggers a retransmission (with
    // exponential backoff) or moves us to the next replica.
    const double timeout_ms = TimeoutForAttemptMs(
        service_->options().failure_timeout_ms, retry,
        service_->options().retry_backoff);
    sim_->Schedule(SimTime::Millis(timeout_ms), [this, flow, index, retry] {
      ProbeTimedOut(flow, index, retry);
    });
    return;
  }

  if (serving_ != nullptr) {
    TransmitServed(flow, index, retry);
    return;
  }

  const MappingEntry* entry = service_->StoreLookup(host, flow->guid);
  if (entry != nullptr) {
    const MappingEntry found = *entry;
    const AsId serving = host;
    sim_->Schedule(SimTime::Millis(rtt), [this, flow, found, serving] {
      // Cache fill on globally served answers only: a local win already
      // costs the one intra-AS round trip a cache hit would.
      if (cache_ != nullptr && !flow->completed) {
        cache_->Put(flow->querier, flow->guid, found, sim_->Now());
      }
      LookupResult result;
      result.found = true;
      result.nas = found.nas;
      result.serving_as = serving;
      flow->Complete(*sim_, result);
    });
  } else {
    // "GUID missing" reply arrives a full round trip later; then the next
    // replica is probed.
    sim_->Schedule(SimTime::Millis(rtt), [this, flow, index] {
      SendProbe(flow, index + 1);
    });
  }
}

void EventDrivenLookup::TransmitServed(const std::shared_ptr<Flow>& flow,
                                       std::size_t index, int retry) {
  const auto [host, rtt] = flow->plan[index];

  // A capacity-limited replica may never answer (shed) or answer late
  // (queued past the budget), so every transmission arms a timeout — the
  // same adaptive bound the wire path uses: never below 1.5x the expected
  // RTT, backing off exponentially across retries.
  const double timeout_ms =
      std::max(TimeoutForAttemptMs(service_->options().failure_timeout_ms,
                                   retry, service_->options().retry_backoff),
               1.5 * rtt);
  flow->probe_timeout = sim_->Schedule(
      SimTime::Millis(timeout_ms),
      [this, flow, index, retry] { ProbeTimedOut(flow, index, retry); });

  // The probe arrives at the replica after the one-way path and meets the
  // admission machinery there, at arrival time.
  sim_->Schedule(SimTime::Millis(0.5 * rtt), [this, flow, index, host = host,
                                              rtt = rtt] {
    if (flow->completed) return;
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
          if (flow->completed) return;
          if (found.has_value()) {
            // A found reply resolves the lookup even when its probe already
            // timed out (the PR-4 late-reply semantics).
            if (cache_ != nullptr) {
              cache_->Put(flow->querier, flow->guid, *found, sim_->Now());
            }
            LookupResult result;
            result.found = true;
            result.nas = found->nas;
            result.serving_as = host;
            result.queue_delay_ms = admit.queue_delay_ms;
            result.admission = admit.outcome;
            flow->Complete(*sim_, result);
            return;
          }
          if (index != flow->frontier) return;  // late miss: moved past it
          flow->probe_timeout.Cancel();
          SendProbe(flow, index + 1);
        });
  });
}

void EventDrivenLookup::ProbeTimedOut(const std::shared_ptr<Flow>& flow,
                                      std::size_t index, int retry) {
  if (flow->completed || index != flow->frontier) return;
  if (retry < service_->options().probe_retries) {
    Transmit(flow, index, retry + 1);
    return;
  }
  SendProbe(flow, index + 1);
}

}  // namespace dmap
