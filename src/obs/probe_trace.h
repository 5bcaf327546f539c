// Per-operation probe tracing: the observability layer's answer to "why was
// this lookup slow?". A ProbeTrace records, for one sampled operation, every
// replica probed (in probe order, with the RTT charged and the outcome),
// how many Algorithm-1 hash evaluations fired, and whether the local replica
// won the race — the per-operation evidence Sections III-B/C/D reason about
// but the aggregate tables of sim/metrics.h cannot show.
//
// Tracing is sampled deterministically by GUID fingerprint (1-in-N), so the
// set of traced operations — and hence the exported op_trace — does not
// depend on the thread count or on scheduling.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/guid.h"
#include "common/thread_annotations.h"
#include "topo/graph.h"

namespace dmap {

// Outcome of one probe within a lookup.
enum class ProbeOutcome : char {
  kHit = 'H',      // replica answered with the mapping
  kMiss = 'M',     // replica reachable but had no entry (wasted round trip)
  kFailed = 'F',   // replica's AS marked failed: timeout, fall through
  kTimeout = 'T',  // no reply within the retry budget (wire path: the
                   // client cannot tell a crash from a dropped message)
};

struct ProbeEvent {
  AsId replica = kInvalidAs;
  double rtt_ms = 0.0;  // time charged for this probe (RTT or timeout)
  ProbeOutcome outcome = ProbeOutcome::kMiss;
};

// How the serving tier treated the request that resolved an operation.
// Backends without a capacity model (the closed form, the wire network,
// all baselines) report the default — zero-delay kServed — so the
// cross-backend contract stays uniform (resolver_contract_test pins this).
enum class AdmissionOutcome : char {
  kServed = 'S',  // started service immediately (no queue wait)
  kQueued = 'Q',  // admitted but waited in the server's FIFO queue
  kShed = 'X',    // rejected (token bucket empty or queue full); the
                  // client sees a timeout and falls through / retries
};

// Lowercase wire names used by the op_trace CSV: served / queued / shed.
const char* AdmissionOutcomeName(AdmissionOutcome outcome);

// One sampled operation. Backends fill this into the operation's
// ResolverOutcome (see core/dmap_service.h); the ProbeTracer sink collects
// copies for export.
struct ProbeTrace {
  char op = 'L';  // 'L' Lookup, 'V' LookupWithView; see OpTraceCsv
  std::uint64_t guid_fp = 0;  // Guid::Fingerprint64 of the subject
  AsId querier = kInvalidAs;
  bool found = false;
  bool local_won = false;  // the local replica answered first
  double latency_ms = 0.0;
  // Serving-tier view of the operation (op_trace CSV v2 columns): queue
  // wait charged by the replica that resolved it, and how admission went.
  // Zero-delay kServed everywhere the serving tier is off.
  double queue_delay_ms = 0.0;
  AdmissionOutcome admission = AdmissionOutcome::kServed;
  int attempts = 0;           // probes issued (== probes.size() when traced)
  int hash_evaluations = 0;   // Algorithm-1 hash evals to locate replicas
  std::vector<ProbeEvent> probes;  // in probe order
};

// Deterministic 1-in-N sampling decision, keyed on the GUID fingerprint so
// the same operations are traced regardless of worker count or scheduling.
class TraceSampler {
 public:
  // `sample_every` <= 1 traces everything.
  explicit TraceSampler(std::uint64_t sample_every = 1)
      : sample_every_(sample_every) {}

  std::uint64_t sample_every() const { return sample_every_; }

  bool ShouldTrace(std::uint64_t guid_fp) const {
    return sample_every_ <= 1 || Mix(guid_fp) % sample_every_ == 0;
  }
  bool ShouldTrace(const Guid& guid) const {
    return sample_every_ <= 1 || ShouldTrace(guid.Fingerprint64());
  }

 private:
  // SplitMix64 finalizer: decorrelates the sampling decision from the hash
  // family that places replicas (both consume the fingerprint).
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t sample_every_;
};

// Trace sink: one buffer per worker (no locks on the record path; workers
// share no mutable state), drained into a deterministically ordered list.
class ProbeTracer {
 public:
  explicit ProbeTracer(unsigned num_workers = 1,
                       std::uint64_t sample_every = 1);

  const TraceSampler& sampler() const { return sampler_; }
  bool ShouldTrace(const Guid& guid) const {
    return sampler_.ShouldTrace(guid);
  }
  bool ShouldTrace(std::uint64_t guid_fp) const {
    return sampler_.ShouldTrace(guid_fp);
  }

  unsigned num_workers() const { return unsigned(buffers_.size()); }

  // Grows the per-worker buffer set. Must not race with Record.
  void EnsureWorkers(unsigned num_workers) REQUIRES_ALL_SHARDS();

  // Appends to `worker`'s buffer. Workers must use distinct ids.
  void Record(unsigned worker, ProbeTrace trace) REQUIRES_SHARD(worker);

  // Total traces recorded so far (sums worker buffers; call while idle).
  std::uint64_t recorded() const REQUIRES_ALL_SHARDS();

  // Moves out all traces, sorted into a canonical order (by content, not by
  // recording order) so the export is byte-identical for any worker count.
  std::vector<ProbeTrace> Drain() REQUIRES_ALL_SHARDS();

 private:
  // Separately allocated and cache-line aligned so concurrent appends by
  // different workers never share a line.
  struct alignas(64) Buffer {
    std::vector<ProbeTrace> traces;
  };

  TraceSampler sampler_;
  // buffers_[w] is appended to only by worker w; recorded()/Drain() touch
  // every buffer and run outside the parallel phase.
  std::vector<std::unique_ptr<Buffer>> buffers_ SHARD_CONFINED(worker);
};

}  // namespace dmap
