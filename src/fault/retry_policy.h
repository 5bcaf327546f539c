// Shared client retry/backoff arithmetic. Three execution paths time out on
// unresponsive replicas — the closed-form DMapService, the event-driven
// wrapper in sim/, and the wire protocol in proto/ — and the agreement
// tests require all of them to charge the same amount of simulated time
// for the same fault. Keeping the geometry here, rather than three hand
// rolled loops, is what keeps them aligned.
//
// Policy: a probe's first timeout is `base_timeout_ms`; each retransmission
// multiplies it by `backoff` (deterministic exponential backoff, no
// randomized jitter — runs must be replayable). After `retries`
// retransmissions the client gives up on the replica and falls through to
// the next one, having spent TotalTimeoutCostMs in all.
//
// Two timeout rules, by what the client can know. The closed form and the
// event-driven executor without a serving tier know at send time that a
// host is down, so a dead probe costs exactly TimeoutForAttemptMs. The wire
// protocol and the serving-tier path only see silence: a slow-but-alive
// replica must not be declared dead before its reply can arrive, so they
// arm AdaptiveTimeoutMs, which never drops below 1.5x the expected RTT.
#pragma once

#include <algorithm>

namespace dmap {

// Timeout armed for retransmission number `retry` (0 = first transmission).
inline double TimeoutForAttemptMs(double base_timeout_ms, int retry,
                                  double backoff) {
  double timeout = base_timeout_ms;
  for (int i = 0; i < retry; ++i) timeout *= backoff;
  return timeout;
}

// Timeout armed for retransmission `retry` when the client only observes
// silence: the policy geometry, floored at 1.5x the round trip `rtt_ms` it
// expects. Retry 0 is exactly max(base_timeout_ms, 1.5 * rtt_ms).
inline double AdaptiveTimeoutMs(double base_timeout_ms, int retry,
                                double backoff, double rtt_ms) {
  return std::max(TimeoutForAttemptMs(base_timeout_ms, retry, backoff),
                  1.5 * rtt_ms);
}

// Total time a client waits on a dead replica before falling through:
// base * (1 + b + b^2 + ... + b^retries).
inline double TotalTimeoutCostMs(double base_timeout_ms, int retries,
                                 double backoff) {
  double total = 0.0;
  double timeout = base_timeout_ms;
  for (int retry = 0; retry <= retries; ++retry) {
    total += timeout;
    timeout *= backoff;
  }
  return total;
}

}  // namespace dmap
