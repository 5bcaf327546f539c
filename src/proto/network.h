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
#include <deque>
#include <functional>
#include <memory>
#include <optional>
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
  // wave does not advance a GUID's committed quorum frontier — the quorum
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
  // lookup: request ids stay routed until the operation completes.
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
  // What the simulator keeps per client-written GUID. None of it is
  // protocol state: it changes no message, virtual time or store.
  struct GuidRecord {
    std::uint64_t version = 0;  // the last version a client write stamped
    // Highest stamp whose write reached its quorum: the frontier a
    // non-stale read must reach. Only advanced when QuorumActive(); a
    // failed write never advances it (its survivors still serve the newer
    // stamp, which is allowed: stale means *older* than committed).
    LogicalStamp committed;
    AsId owner = kInvalidAs;  // attachment AS of the latest client write
    ResolutionMemo replicas;  // resolved once per prefix-table epoch
  };
  using RecordMap = std::unordered_map<Guid, GuidRecord, GuidHash>;

  // Where a write goes: the replica host and the address Algorithm 1
  // hashed it to there.
  struct WriteTarget {
    AsId host = kInvalidAs;
    Ipv4Address stored_address;
  };

  // One client lookup. Ops live in an OpSlab and are reused, so the
  // vectors keep their capacity from op to op.
  struct LookupOp {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    Guid guid;
    AsId querier = kInvalidAs;
    GuidRecord* record = nullptr;  // nullptr: not client-written at start
    std::vector<PlannedProbe> plan;  // ordered by (rtt, host)
    std::vector<std::uint64_t> request_ids;  // probe i's id is entry i
    LookupFlow flow;                    // one stream per read-quorum member
    std::vector<EventHandle> timeouts;  // per stream, the armed probe timer
    SimTime started;
    std::optional<LocalReply> local;  // the querier store's answer, if any
    EventHandle local_reply;
    std::vector<std::size_t> miss_indices;  // live replicas with no entry
    std::function<void(const LookupResult&)> done;
    std::optional<ProbeTrace> trace;
    // Found answers as (plan index, entry); the winner is the max stamp,
    // ties broken toward the lowest plan index.
    std::vector<std::pair<std::size_t, MappingEntry>> answers;
    // --- read quorum (R > 1 only) ---
    int responses = 0;  // distinct replicas that answered (found or miss)
    std::vector<char> index_responded;  // one flag per plan index

    void Clear();
  };

  // One client write: an insert, a batched handoff, a repair, an
  // anti-entropy push or a withdrawal handoff.
  struct WriteOp {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    std::uint64_t request_id = 0;
    SimTime started;
    WriteFlow flow;                     // one slot per request
    std::vector<EventHandle> timeouts;  // per slot, its stand-in timer
    // A client insert commits `stamp` to `committer` when its quorum is
    // reached.
    GuidRecord* committer = nullptr;
    LogicalStamp stamp;
    // The report. Client inserts and withdrawal handoffs report an
    // UpdateResult over `replicas` and `version` through `done`; a batched
    // handoff reports `batch` (entries_applied counted as responses land)
    // through `batch_done`; repairs report nothing.
    std::vector<AsId> replicas;
    std::uint64_t version = 0;
    std::function<void(const UpdateResult&)> done;
    std::optional<BatchUpdateResult> batch;
    std::function<void(const BatchUpdateResult&)> batch_done;

    void Clear();
  };

  // Reusable ops at stable addresses. Releasing a slot bumps its
  // generation, so a route or event naming an older generation finds the
  // op gone and never touches the op that reused the slot.
  template <typename Op>
  class OpSlab {
   public:
    Op& Acquire() {
      if (free_.empty()) {
        Op& op = ops_.emplace_back();
        op.slot = std::uint32_t(ops_.size() - 1);
        return op;
      }
      Op& op = ops_[free_.back()];
      free_.pop_back();
      return op;
    }
    void Release(Op& op) {
      op.Clear();
      ++op.generation;
      free_.push_back(op.slot);
    }
    Op* Find(std::uint32_t slot, std::uint32_t generation) {
      Op& op = ops_[slot];
      return op.generation == generation ? &op : nullptr;
    }

   private:
    std::deque<Op> ops_;
    std::vector<std::uint32_t> free_;
  };

  // Where a client request id leads: its op, and for a lookup probe the
  // plan index it asks about.
  struct Route {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    std::uint32_t index = 0;
    bool write = false;
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

  // The record of a client-written GUID, or nullptr.
  GuidRecord* FindRecord(const Guid& guid);
  // The K replica resolutions of `guid`: through `record`'s memo (kept
  // afresh after BGP churn) when it has one, else resolved into `fresh`.
  // Valid until the GUID is next resolved.
  std::span<const HostResolution> Replicas(const Guid& guid,
                                           GuidRecord* record,
                                           std::vector<HostResolution>& fresh);

  // Client request ids carry this bit; node-issued ids never do.
  static constexpr std::uint64_t kClientRequestBit = 0x8000000000000000ULL;
  // Client request ids, in increasing order. Each id's route sits in a
  // ring indexed by its offset from the oldest id still routed; routes
  // whose op was released are dropped from the front as ids are issued.
  std::uint64_t IssueRequestId(const Route& route);
  // The route of `id` while its op is live; nullopt once it was released
  // (the message then falls through to the node, which ignores it).
  std::optional<Route> FindRoute(std::uint64_t id);
  bool Live(const Route& route);

  // Lookup client machine: R probe streams (LookupFlow) over the plan,
  // R = 1 being the paper's sequential walk. R = 1 completes at the first
  // found answer, R > 1 at R distinct responses with the max-stamp
  // answer; either completes as a miss once every stream has stopped.
  // SendProbe claims the stream's next replica (or stops the stream);
  // TransmitProbe sends it and arms the timeout, whose event carries the
  // probe's request id.
  void SendProbe(LookupOp& op, std::size_t stream);
  void TransmitProbe(LookupOp& op, std::size_t stream);
  double ProbeTimeoutMs(const LookupOp& op, std::size_t stream) const;
  void ProbeTimedOut(std::uint64_t request_id);
  void LocalReplyArrived(std::uint32_t slot, std::uint32_t generation);
  // True if the response was consumed by a client lookup op.
  bool HandleLookupResponse(const LookupResponse& response);
  void MaybeCompleteLookup(LookupOp& op);
  // Picks the max-stamp answer, read-repairs stale answerers (R > 1) and
  // seals the op through CompleteLookup.
  void CompleteWithAnswers(LookupOp& op);
  // Seals the op: cancels timers, records the trace, fires the repair of
  // miss-replying replicas (when `found_entry` is set), releases the op
  // and invokes the callback.
  void CompleteLookup(LookupOp& op, LookupResult result,
                      const MappingEntry* found_entry);

  // Write client machine, on the sans-IO core (core/write_flow.h): client
  // inserts, batched handoffs, lookup repairs, anti-entropy pushes and
  // withdrawal handoffs all run here. StartWrite opens one slot per
  // request, arms its stand-in timeout and sends it; an ack or the timeout
  // resolves the slot, and AdvanceWrite reports the op's verdict (at most
  // once) and releases the op once every slot has resolved, so late acks
  // keep their accounting until then.
  WriteOp& NewWriteOp();
  void StartWrite(WriteOp& op, std::vector<Message> requests);
  void WriteTimedOut(std::uint32_t slot, std::uint32_t generation,
                     std::size_t flow_slot);
  void AdvanceWrite(WriteOp& op);
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
    GuidRecord* record = nullptr;
    std::span<const HostResolution> hosts;  // the K replica hosts, in order
  };
  // Stamps the next entry of `guid` written from `na`, resolves its K
  // replica hosts, writes the local replica in place (Section III-C),
  // deletes the superseded local copy a moved host left behind and
  // registers the GUID for anti-entropy.
  ClientStamp ClientWrite(const Guid& guid, NetworkAddress na);

  void Bump(std::uint64_t& plain, CounterId id, std::uint64_t delta = 1);

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
  // Quorum parameters resolved once against the replica-set size.
  int write_quorum_effective_ = 1;
  int read_quorum_effective_ = 1;
  RecordMap records_;
  // Anti-entropy registry: every client-written GUID in first-write order;
  // the round cursor walks this deterministically.
  std::vector<RecordMap::value_type*> registry_;
  std::size_t registry_cursor_ = 0;

  OpSlab<LookupOp> lookup_ops_;
  OpSlab<WriteOp> write_ops_;
  // Routes of the ids [route_base_, next_client_request_), the one of
  // route_base_ at routes_[route_head_]; the capacity is a power of two.
  std::vector<Route> routes_ = std::vector<Route>(64);
  std::size_t route_head_ = 0;
  std::uint64_t route_base_ = 1;
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
