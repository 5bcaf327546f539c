// ProtocolNetwork: runs the full DMap wire protocol over the discrete-event
// kernel. One DMapNode per AS; every message is encoded to wire bytes
// (exercising the real serialisation path and feeding the traffic
// accounting), delivered after the underlay one-way latency, decoded, and
// handed to the destination node or client agent. Client operations
// implement the querier-side logic on the two sans-IO cores: every write
// (insert, batched handoff, repair, anti-entropy push, withdrawal handoff)
// drives core/write_flow.h, every lookup core/lookup_flow.h, with wire
// messages, request ids and adaptive timeouts.
//
// Failures are consulted at *delivery* time against a shared FailureView
// (fault/failure_view.h): a message in flight when its destination goes
// down is lost, one in flight when it recovers arrives. An optional
// FaultInjector (ApplyFaultPlan) additionally interposes on every send,
// deciding per message — deterministically from (seed, message sequence) —
// whether it is dropped, duplicated, or delayed. The client only sees
// silence, so it arms AdaptiveTimeoutMs (fault/retry_policy.h).
//
// This is the "production" execution path; DMapService is the closed-form
// fast path. Tests assert the two report identical timings. Replicas have
// infinite serving capacity here and queriers keep no resolver cache: the
// serving tier lives in EventDrivenLookup and the cache in DMapService,
// the executors their workloads drive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/dmap_service.h"
#include "core/hole_resolver.h"
#include "event/simulator.h"
#include "fault/failure_view.h"
#include "fault/fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "proto/node.h"
#include "topo/shortest_path.h"

namespace dmap {

// The wire protocol's options: the shared ProtocolOptions plus the read
// side of the quorum discipline. Lookups that find the mapping after some
// replica answered "GUID missing" always re-insert the found entry there
// (version-gated, so concurrent repairs and stale copies are harmless).
struct ProtocolNetworkOptions : ProtocolOptions {
  // Read quorum R: how many distinct replicas must answer (found or
  // "GUID missing") before a lookup reports. 1 (default) keeps the
  // paper's sequential lowest-RTT-first probing bit-identical; R > 1
  // runs R concurrent probe streams, returns the answer with the
  // maximum logical stamp, and read-repairs both empty and stale
  // repliers. Clamped to K.
  int read_quorum = 1;
  // GUIDs examined per RunAntiEntropyRound call; 0 disables the round
  // (calls become no-ops) and keeps the consistency.* instruments
  // unregistered when W and R are also at their legacy settings.
  int anti_entropy_budget = 0;
};

class ProtocolNetwork {
 public:
  ProtocolNetwork(const AsGraph& graph, const PrefixTable& table,
                  const ProtocolNetworkOptions& options);

  Simulator& simulator() { return sim_; }
  DMapNode& node(AsId as) { return *nodes_[as]; }
  const ProtocolNetworkOptions& options() const { return options_; }
  PathOracle& oracle() { return oracle_; }

  // Router failure (Section III-D-3): opens an outage window at the current
  // sim time. Messages *delivered* while the window is open vanish — a
  // failure landing between send and receive loses the in-flight message;
  // clients fall through to the next replica after the timeout.
  void FailAs(AsId as);
  // Closes the outage at the current sim time; the AS answers again.
  void RecoverAs(AsId as);

  // Shares a failure schedule with the closed-form and event-driven paths:
  // configure a scenario once, hand the same view everywhere.
  void SetFailureView(const FailureView& view) { failures_ = view; }
  const FailureView& failure_view() const { return failures_; }

  // Expands `plan` into this network: its crash/outage windows are merged
  // into the failure view, store wipes are scheduled as simulator events,
  // and its per-message faults interpose on every subsequent send. Message
  // fates are pure functions of (seed, message sequence number), so a run
  // is replayable bit-for-bit from (plan, seed).
  void ApplyFaultPlan(const FaultPlan& plan, std::uint64_t seed);
  const FaultInjector* injector() const { return injector_.get(); }

  // Registers the fault.* instruments and mirrors the fault counters into
  // `registry` under shard `shard` (the network itself is serial; parallel
  // harnesses run one network per trial and pass the worker id).
  void SetMetrics(MetricsRegistry* registry, unsigned shard = 0);
  // Samples per-lookup probe traces (outcome 'T' marks a probe that
  // exhausted its retry budget without a reply).
  void SetTracer(ProbeTracer* tracer, unsigned shard = 0);

  // Registers/refreshes `guid` from the AS in `na`: K parallel replica
  // writes plus the local copy. Completion follows WriteFlow's rule
  // (core/write_flow.h): with W <= 1 when the slowest ack (or, for an
  // unreachable replica, its stand-in timeout) returns; with W > 1 at the
  // W-th applied ack, or kQuorumFailed when W is unreachable.
  void InsertAsync(const Guid& guid, NetworkAddress na,
                   std::function<void(const UpdateResult&)> done);

  // Batched mobility handoff (the fast path): all of a migrating host's
  // GUID updates — every move must share one destination AS — grouped per
  // replica-host AS into one BatchUpdateRequest each, so the wave costs
  // |distinct replica ASes| messages instead of K*N singleton inserts.
  // Replicas apply the entries atomically under the same stamp gate as
  // singleton writes, so store contents are bit-identical to issuing the
  // updates one by one. Each message runs on a write slot with W = 1: the
  // slowest response (or its stand-in timeout) finishes the batch. A batch
  // wave does not advance the committed_ quorum frontier — the quorum
  // discipline is per-GUID and a batch response acks an AS, not a quorum.
  void BatchUpdateAsync(
      const std::vector<std::pair<Guid, NetworkAddress>>& moves,
      std::function<void(const BatchUpdateResult&)> done);

  // One bounded anti-entropy sweep, run at the serial write point between
  // event batches: examines up to `budget` registered GUIDs (a
  // deterministic cursor walks the insertion-ordered registry, wrapping)
  // and, for each, pushes the freshest replica's entry to every replica
  // whose stored stamp is behind — as real InsertRequests, subject to the
  // fault plan like any other message. Returns the number of repair
  // writes sent. No-op (returns 0) when budget <= 0 or nothing was ever
  // inserted. Must not run concurrently with event execution: it reads
  // replica stores directly and schedules sends.
  int RunAntiEntropyRound(int budget) REQUIRES_SERIAL();

  // Resolves `guid` from `querier` with the full probe/fall-through logic.
  // A reply that arrives after its probe timed out still resolves the
  // lookup: request ids stay registered until the operation completes.
  void LookupAsync(const Guid& guid, AsId querier,
                   std::function<void(const LookupResult&)> done);

  // The Section III-D-1 withdrawal protocol, end to end: before `owner`
  // withdraws `prefix`, it hands every mapping it holds under that prefix,
  // or for a replica placed inside it, to the mapping's deputies (its
  // resolutions once the prefix is gone), then the
  // withdrawal is applied to `table` — which must be the same object this
  // network resolves against. A new chain that lands back on the owner
  // keeps its copy there, rewritten in place. `done(migrated)` fires when
  // the last deputy ack returns (at once when no message is needed). Throws
  // std::invalid_argument, before withdrawing anything, for an unknown
  // owner AS or an unannounced prefix.
  void WithdrawPrefixAsync(const Cidr& prefix, AsId owner,
                           PrefixTable& table,
                           std::function<void(int migrated)> done);

  // Wire accounting (actual encoded bytes).
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  // Fault accounting (also mirrored to fault.* metrics when registered).
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t duplicates_delivered() const { return duplicates_delivered_; }
  std::uint64_t late_replies() const { return late_replies_; }
  std::uint64_t repairs_sent() const { return repairs_sent_; }
  std::uint64_t store_wipes() const { return store_wipes_; }

  // Consistency accounting (mirrored to consistency.* metrics when the
  // quorum machinery is active — see QuorumActive()).
  std::uint64_t stale_reads() const { return stale_reads_; }
  std::uint64_t read_repairs() const { return read_repairs_; }
  std::uint64_t quorum_failures() const { return quorum_failures_; }
  std::uint64_t anti_entropy_repairs() const {
    return anti_entropy_repairs_;
  }
  // True when any consistency knob departs from the legacy settings; the
  // consistency.* instruments exist (and the commit frontier is tracked)
  // only then, so a W=1/R=1 run's metrics export stays byte-identical to
  // the pre-quorum protocol.
  bool QuorumActive() const {
    return write_quorum_effective_ > 1 || read_quorum_effective_ > 1 ||
           options_.anti_entropy_budget > 0;
  }

 private:
  struct LookupOp;
  struct WriteOp;
  // Where a write goes: the replica host and the address Algorithm 1
  // hashed it to there.
  struct WriteTarget {
    AsId host = kInvalidAs;
    Ipv4Address stored_address;
  };
  // Routes an in-flight reply back to its lookup: the op plus which probe
  // (plan index) the request id belongs to.
  struct PendingProbe {
    std::shared_ptr<LookupOp> op;
    std::size_t index = 0;
  };
  struct FaultInstruments {
    CounterId injected_drops = 0, injected_duplicates = 0,
              delivery_drops = 0, retransmissions = 0, late_replies = 0,
              repair_inserts = 0, store_wipes = 0;
  };
  struct ConsistencyInstruments {
    CounterId stale_reads = 0, read_repairs = 0, quorum_failures = 0,
              anti_entropy_repairs = 0;
    HistogramId write_quorum_latency_ms = 0, read_quorum_latency_ms = 0;
    bool registered = false;
  };

  // Encodes, counts, and schedules delivery of `message`. The injector (if
  // any) decides drop/duplicate/extra delay per message; the destination's
  // failure state is checked when each copy is *delivered*.
  void Send(const Message& message);
  void Deliver(const Message& message);

  // Lookup client machine: R probe streams (LookupFlow) over the plan,
  // R = 1 being the paper's sequential walk. R = 1 completes at the first
  // found answer, R > 1 at R distinct responses with the max-stamp
  // answer; either completes as a miss once every stream has stopped.
  // SendProbe claims the stream's next replica (or stops the stream);
  // TransmitProbe sends it and arms the timeout.
  void SendProbe(const std::shared_ptr<LookupOp>& op, std::size_t stream);
  void TransmitProbe(const std::shared_ptr<LookupOp>& op, std::size_t stream);
  void ProbeTimedOut(const std::shared_ptr<LookupOp>& op, std::size_t stream,
                     std::size_t index, double timeout_ms);
  // True if the response was consumed by a client lookup op.
  bool HandleLookupResponse(const LookupResponse& response);
  void MaybeCompleteLookup(const std::shared_ptr<LookupOp>& op);
  // Picks the max-stamp answer, read-repairs stale answerers (R > 1) and
  // seals the op through CompleteLookup.
  void CompleteWithAnswers(const std::shared_ptr<LookupOp>& op);
  // Seals the op: cancels timers, unregisters its request ids, records the
  // trace, fires the repair of miss-replying replicas (when `found_entry`
  // is set), and invokes the callback.
  void CompleteLookup(const std::shared_ptr<LookupOp>& op,
                      LookupResult result, const MappingEntry* found_entry);

  // Write client machine, on the sans-IO core (core/write_flow.h): client
  // inserts, batched handoffs, lookup repairs, anti-entropy pushes and
  // withdrawal handoffs all run here. StartWrite opens one slot per
  // request, arms its stand-in timeout and sends it; an ack or the timeout
  // resolves the slot, and AdvanceWrite reports the op's verdict (at most
  // once) and unregisters the op once every slot has resolved, so late
  // acks keep their accounting until then.
  std::shared_ptr<WriteOp> NewWriteOp();
  void StartWrite(const std::shared_ptr<WriteOp>& op,
                  std::vector<Message> requests);
  void AdvanceWrite(const std::shared_ptr<WriteOp>& op);
  // True if the ack (an InsertAck, or a BatchUpdateResponse with `applied`
  // entries applied) was consumed by a client write op.
  bool HandleWriteAck(const MessageHeader& header, std::uint64_t applied);
  // Fire-and-forget repair writes of `entry` from `src`, one per target,
  // tracked by one op.
  void SendRepairs(const Guid& guid, AsId src, const MappingEntry& entry,
                   std::span<const WriteTarget> targets);
  // What ClientWrite hands the write it starts.
  struct ClientStamp {
    MappingEntry entry;
    bool local_applied = false;  // the write's instant local ack
    std::vector<HostResolution> hosts;  // the K replica hosts, in order
  };
  // Stamps the next entry of `guid` written from `na`, resolves its K
  // replica hosts, writes the local replica in place (Section III-C),
  // deletes the superseded local copy a moved host left behind and notes
  // the GUID for anti-entropy.
  ClientStamp ClientWrite(const Guid& guid, NetworkAddress na);

  void Bump(std::uint64_t& plain, CounterId id, std::uint64_t delta = 1);

  std::uint64_t NextClientRequestId() {
    return 0x8000000000000000ULL | next_client_request_++;
  }

  const AsGraph* graph_;
  ProtocolNetworkOptions options_;
  GuidHashFamily hashes_;
  HoleResolver resolver_;
  PathOracle oracle_;
  Simulator sim_;
  std::vector<std::unique_ptr<DMapNode>> nodes_;
  FailureView failures_;
  std::unique_ptr<FaultInjector> injector_;
  std::uint64_t message_seq_ = 0;  // feeds FaultInjector::FateOf
  std::unordered_map<Guid, std::uint64_t, GuidHash> versions_;
  // Quorum parameters resolved once against the replica-set size.
  int write_quorum_effective_ = 1;
  int read_quorum_effective_ = 1;
  // Highest stamp whose write reached its quorum, per GUID — the frontier
  // a non-stale read must reach. Only advanced when QuorumActive(); a
  // failed write never advances it (its survivors still serve the newer
  // stamp, which is allowed: stale means *older* than committed).
  std::unordered_map<Guid, LogicalStamp, GuidHash> committed_;
  // Anti-entropy registry: every GUID ever client-inserted, in first
  // insertion order, plus the attachment AS of its latest write; the
  // round cursor walks this deterministically.
  std::vector<Guid> ae_guids_;
  std::unordered_map<Guid, AsId, GuidHash> ae_owner_;
  std::size_t ae_cursor_ = 0;

  // In-flight client operations keyed by request id. Lookup entries stay
  // registered until the op completes, so late replies resolve the lookup
  // instead of leaking to the node layer.
  std::unordered_map<std::uint64_t, PendingProbe> lookups_;
  std::unordered_map<std::uint64_t, std::shared_ptr<WriteOp>> writes_;
  std::uint64_t next_client_request_ = 1;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t duplicates_delivered_ = 0;
  std::uint64_t delivery_drops_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t late_replies_ = 0;
  std::uint64_t repairs_sent_ = 0;
  std::uint64_t store_wipes_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t read_repairs_ = 0;
  std::uint64_t quorum_failures_ = 0;
  std::uint64_t anti_entropy_repairs_ = 0;

  MetricsRegistry* metrics_ = nullptr;
  unsigned metrics_shard_ = 0;
  FaultInstruments ins_{};
  ConsistencyInstruments cins_{};
  ProbeTracer* tracer_ = nullptr;
  unsigned trace_shard_ = 0;
};

}  // namespace dmap
