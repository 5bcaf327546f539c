#include "proto/network.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/lookup_flow.h"
#include "core/write_flow.h"
#include "fault/retry_policy.h"

namespace dmap {

void ProtocolNetwork::LookupOp::Clear() {
  record = nullptr;
  plan.clear();
  request_ids.clear();
  timeouts.clear();
  local.reset();
  local_reply = EventHandle();
  miss_indices.clear();
  done = nullptr;
  trace.reset();
  answers.clear();
  responses = 0;
  index_responded.clear();
}

void ProtocolNetwork::WriteOp::Clear() {
  flow.Reset(1, false);
  timeouts.clear();
  committer = nullptr;
  stamp = LogicalStamp{};
  replicas.clear();
  version = 0;
  done = nullptr;
  batch.reset();
  batch_done = nullptr;
}

ProtocolNetwork::ProtocolNetwork(const AsGraph& graph,
                                 const PrefixTable& table,
                                 const ProtocolNetworkOptions& options)
    : graph_(&graph),
      options_((options.Validate(), options)),
      hashes_(options.k, options.hash_seed),
      resolver_(hashes_, table, options.max_hashes),
      oracle_(graph) {
  if (options.read_quorum < 1) {
    throw std::invalid_argument("ProtocolNetwork: read_quorum < 1");
  }
  if (options.anti_entropy_budget < 0) {
    throw std::invalid_argument("ProtocolNetwork: anti_entropy_budget < 0");
  }
  write_quorum_effective_ = WriteQuorum(
      options.write_quorum, std::size_t(options.k), options.local_replica);
  read_quorum_effective_ =
      options.read_quorum > options.k ? options.k : options.read_quorum;
  nodes_.reserve(graph.num_nodes());
  for (AsId as = 0; as < graph.num_nodes(); ++as) {
    nodes_.push_back(
        std::make_unique<DMapNode>(as, table, hashes_, options.max_hashes));
  }
}

void ProtocolNetwork::FailAs(AsId as) { failures_.Fail(as, sim_.Now()); }

void ProtocolNetwork::RecoverAs(AsId as) {
  failures_.Recover(as, sim_.Now());
}

void ProtocolNetwork::ApplyFaultPlan(const FaultPlan& plan,
                                     std::uint64_t seed) {
  injector_ = std::make_unique<FaultInjector>(plan, seed);
  injector_->InstallSchedule(*graph_, failures_);
  for (const auto& [at, as] : injector_->WipeSchedule()) {
    const SimTime when = at < sim_.Now() ? sim_.Now() : at;
    sim_.ScheduleAt(when, [this, as] {
      nodes_[as]->store().Clear();
      Bump(store_wipes_, ins_.store_wipes);
    });
  }
}

void ProtocolNetwork::SetMetrics(MetricsRegistry* registry, unsigned shard) {
  metrics_ = registry;
  metrics_shard_ = shard;
  if (registry == nullptr) return;
  ins_.injected_drops = registry->Counter("fault.injected_drops");
  ins_.injected_duplicates = registry->Counter("fault.injected_duplicates");
  ins_.delivery_drops = registry->Counter("fault.delivery_drops");
  ins_.retransmissions = registry->Counter("fault.retransmissions");
  ins_.late_replies = registry->Counter("fault.late_replies");
  ins_.repair_inserts = registry->Counter("fault.repair_inserts");
  ins_.store_wipes = registry->Counter("fault.store_wipes");
  // The consistency.* surface exists only when the quorum machinery is
  // on, so a legacy-mode (W=1, R=1, no anti-entropy) export is
  // byte-identical to the pre-quorum protocol's.
  cins_ = ConsistencyInstruments{};
  if (QuorumActive()) {
    cins_.registered = true;
    cins_.stale_reads = registry->Counter("consistency.stale_reads");
    cins_.read_repairs = registry->Counter("consistency.read_repairs");
    cins_.quorum_failures =
        registry->Counter("consistency.quorum_failures");
    cins_.anti_entropy_repairs =
        registry->Counter("consistency.anti_entropy_repairs");
    cins_.write_quorum_latency_ms =
        registry->Histogram("consistency.write_quorum_latency_ms",
                            MetricsRegistry::LatencyBoundariesMs());
    cins_.read_quorum_latency_ms =
        registry->Histogram("consistency.read_quorum_latency_ms",
                            MetricsRegistry::LatencyBoundariesMs());
  }
}

void ProtocolNetwork::SetTracer(ProbeTracer* tracer, unsigned shard) {
  tracer_ = tracer;
  trace_shard_ = shard;
}

void ProtocolNetwork::Bump(std::uint64_t& plain, CounterId id,
                           std::uint64_t delta) {
  plain += delta;
  if (metrics_ != nullptr) metrics_->Add(id, delta, metrics_shard_);
}

void ProtocolNetwork::Send(const Message& message) {
  const MessageHeader header = HeaderOf(message);
  ++messages_sent_;
  // Encode to wire bytes: real serialisation cost + traffic accounting.
  std::vector<std::uint8_t> wire = Encode(message);
  bytes_sent_ += wire.size();

  // Each copy owns its bytes and decodes them at delivery.
  const auto schedule = [&](double latency_ms,
                            std::vector<std::uint8_t> bytes) {
    sim_.Schedule(
        SimTime::Millis(latency_ms),
        [this, bytes = std::move(bytes), src = header.src, dst = header.dst] {
          // The destination's state at *delivery* time decides: a failure
          // landing while the message is in flight swallows it, a recovery
          // lets it through. A pairwise partition between the endpoints
          // swallows it the same way — both ASs are up, they just cannot
          // hear each other.
          if (failures_.IsFailedAt(dst, sim_.Now()) ||
              failures_.IsPartitionedAt(src, dst, sim_.Now())) {
            ++messages_dropped_;
            Bump(delivery_drops_, ins_.delivery_drops);
            return;
          }
          const std::optional<Message> decoded = Decode(bytes);
          if (!decoded) {
            throw std::logic_error("ProtocolNetwork: wire corruption");
          }
          Deliver(*decoded);
        });
  };
  if (injector_ == nullptr) {
    ++message_seq_;
    schedule(oracle_.OneWayMs(header.src, header.dst), std::move(wire));
    return;
  }
  const MessageFate fate = injector_->FateOf(message_seq_++);
  if (fate.dropped) {
    ++messages_dropped_;
    Bump(injected_drops_, ins_.injected_drops);
    return;
  }
  if (fate.delays_ms.size() > 1) {
    Bump(duplicates_delivered_, ins_.injected_duplicates,
         fate.delays_ms.size() - 1);
  }
  const double latency = oracle_.OneWayMs(header.src, header.dst);
  for (std::size_t copy = 0; copy < fate.delays_ms.size(); ++copy) {
    const bool last = copy + 1 == fate.delays_ms.size();
    schedule(latency + fate.delays_ms[copy], last ? std::move(wire) : wire);
  }
}

void ProtocolNetwork::Deliver(const Message& message) {
  // Client-agent responses are routed by request id.
  if (const auto* response = std::get_if<LookupResponse>(&message)) {
    if (HandleLookupResponse(*response)) return;
  }
  if (const auto* ack = std::get_if<InsertAck>(&message)) {
    if (HandleWriteAck(ack->header, ack->applied ? 1 : 0)) return;
  }
  if (const auto* batch = std::get_if<BatchUpdateResponse>(&message)) {
    const std::uint64_t applied =
        batch->applied.size() - std::uint64_t(std::count(
                                    batch->applied.begin(),
                                    batch->applied.end(), std::uint8_t{0}));
    if (HandleWriteAck(batch->header, applied)) return;
  }

  const MessageHeader& header = HeaderOf(message);
  // Node-to-node protocol traffic. (Responses whose client op already
  // completed also land here; nodes ignore them.)
  std::vector<Message> responses;
  nodes_[header.dst]->HandleMessage(message, &responses);
  for (Message& response : responses) {
    // The node fills src/dst; just transmit.
    Send(response);
  }
}

// ---------------------------------------------------------------------------
// Per-GUID records and request routes.

ProtocolNetwork::GuidRecord* ProtocolNetwork::FindRecord(const Guid& guid) {
  const auto it = records_.find(guid);
  return it == records_.end() ? nullptr : &it->second;
}

std::span<const HostResolution> ProtocolNetwork::Replicas(
    const Guid& guid, GuidRecord* record,
    std::vector<HostResolution>& fresh) {
  ResolutionMemo* memo = record != nullptr ? &record->replicas : nullptr;
  const std::span<const HostResolution> resolutions =
      resolver_.ResolveOrReuse(guid, memo, fresh);
  if (memo == nullptr || fresh.empty()) return resolutions;
  resolver_.Keep(*memo, std::move(fresh));
  return memo->resolutions;
}

bool ProtocolNetwork::Live(const Route& route) {
  return route.write
             ? write_ops_.Find(route.slot, route.generation) != nullptr
             : lookup_ops_.Find(route.slot, route.generation) != nullptr;
}

std::uint64_t ProtocolNetwork::IssueRequestId(const Route& route) {
  std::size_t mask = routes_.size() - 1;
  while (route_base_ < next_client_request_ && !Live(routes_[route_head_])) {
    route_head_ = (route_head_ + 1) & mask;
    ++route_base_;
  }
  const auto count = std::size_t(next_client_request_ - route_base_);
  if (count == routes_.size()) {
    std::vector<Route> grown(2 * routes_.size());
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = routes_[(route_head_ + i) & mask];
    }
    routes_ = std::move(grown);
    route_head_ = 0;
    mask = routes_.size() - 1;
  }
  routes_[(route_head_ + count) & mask] = route;
  return kClientRequestBit | next_client_request_++;
}

std::optional<ProtocolNetwork::Route> ProtocolNetwork::FindRoute(
    std::uint64_t id) {
  if ((id & kClientRequestBit) == 0) return std::nullopt;
  const std::uint64_t n = id & ~kClientRequestBit;
  if (n < route_base_ || n >= next_client_request_) return std::nullopt;
  const Route& route =
      routes_[(route_head_ + std::size_t(n - route_base_)) &
              (routes_.size() - 1)];
  if (!Live(route)) return std::nullopt;
  return route;
}

// ---------------------------------------------------------------------------
// Lookups.

bool ProtocolNetwork::HandleLookupResponse(const LookupResponse& response) {
  const MessageHeader& header = response.header;
  const std::optional<Route> route = FindRoute(header.request_id);
  if (!route.has_value() || route->write) return false;
  LookupOp& op = *lookup_ops_.Find(route->slot, route->generation);
  const std::size_t index = route->index;
  const bool quorum = read_quorum_effective_ > 1;
  if (quorum) {
    // A read quorum counts each replica once: a repeat is an injected
    // duplicate of a reply already consumed, pure noise.
    if (op.index_responded[index] != 0) {
      Bump(late_replies_, ins_.late_replies);
      return true;
    }
    op.index_responded[index] = 1;
    ++op.responses;
  }

  // No stream awaiting this index means its stream timed out past it: the
  // reply is late but still this replica's answer. A late found reply
  // resolves the lookup — the seed protocol dropped these on the floor and
  // fell through to a possibly wrong "not found".
  const std::size_t stream = op.flow.Awaiting(index);
  const bool late = stream == LookupFlow::kNone;
  if (late) Bump(late_replies_, ins_.late_replies);
  if (op.trace.has_value() && (!late || quorum)) {
    // Charged: the timeouts the stream waited out on this replica, plus
    // the round trip that brought the answer.
    const double charged = late ? 0.0 : op.flow.stream(stream).charged_ms;
    op.trace->probes.push_back(
        ProbeEvent{header.src, charged + op.plan[index].rtt,
                   response.found ? ProbeOutcome::kHit : ProbeOutcome::kMiss});
  }

  if (response.found) {
    op.answers.emplace_back(index, response.entry);
    // A found stream's job is done; it does not claim further replicas.
    if (!late) {
      op.timeouts[stream].Cancel();
      op.flow.Stop(stream);
    }
  } else {
    // "GUID missing": the replica is alive but empty — remember it for
    // the lookup-triggered repair.
    if (std::find(op.miss_indices.begin(), op.miss_indices.end(), index) ==
        op.miss_indices.end()) {
      op.miss_indices.push_back(index);
    }
    if (!late) {
      op.timeouts[stream].Cancel();
      SendProbe(op, stream);
    }
  }
  MaybeCompleteLookup(op);
  return true;
}

void ProtocolNetwork::CompleteLookup(LookupOp& op, LookupResult result,
                                     const MappingEntry* found_entry) {
  op.flow.Complete();
  op.local_reply.Cancel();
  for (EventHandle& timeout : op.timeouts) timeout.Cancel();
  // Stale-read accounting against the committed frontier: a found answer
  // whose stamp is behind the last quorum-committed write of this GUID is
  // the consistency violation Fig. 9 measures. The frontier only moves
  // when the quorum machinery is active, so legacy runs never count one.
  if (result.found && found_entry != nullptr) {
    const GuidRecord* record =
        op.record != nullptr ? op.record : FindRecord(op.guid);
    if (record != nullptr && found_entry->stamp() < record->committed) {
      ++stale_reads_;
      if (cins_.registered) {
        metrics_->Add(cins_.stale_reads, 1, metrics_shard_);
      }
    }
  }
  result.latency_ms = (sim_.Now() - op.started).millis();
  result.attempts = op.flow.attempts();
  if (op.trace.has_value()) {
    ProbeTrace& trace = *op.trace;
    trace.found = result.found;
    trace.local_won = result.served_locally;
    trace.latency_ms = result.latency_ms;
    trace.queue_delay_ms = result.queue_delay_ms;
    trace.admission = result.admission;
    trace.attempts = result.attempts;
    if (tracer_ != nullptr) tracer_->Record(trace_shard_, trace);
  }
  if (found_entry != nullptr && !op.miss_indices.empty()) {
    // Re-replication (fire and forget): replicas that answered "missing"
    // are alive but lost the mapping — a crash wiped their store, or
    // placement churn moved it away. Re-insert the found entry there,
    // version-gated so duplicate and out-of-date repairs are rejected as
    // stale.
    std::vector<WriteTarget> targets;
    for (const std::size_t index : op.miss_indices) {
      targets.push_back({op.plan[index].host, op.plan[index].stored_address});
    }
    Bump(repairs_sent_, ins_.repair_inserts, targets.size());
    SendRepairs(op.guid, op.querier, *found_entry, targets);
  }
  // Released before the callback runs, which may start the next lookup.
  const std::function<void(const LookupResult&)> done =
      std::exchange(op.done, nullptr);
  lookup_ops_.Release(op);
  done(result);
}

void ProtocolNetwork::LookupAsync(
    const Guid& guid, AsId querier,
    std::function<void(const LookupResult&)> done) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("LookupAsync: unknown querier AS");
  }
  LookupOp& op = lookup_ops_.Acquire();
  op.guid = guid;
  op.querier = querier;
  op.started = sim_.Now();
  op.done = std::move(done);
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    op.trace.emplace();
    op.trace->op = 'W';  // wire-path lookup
    op.trace->guid_fp = guid.Fingerprint64();
    op.trace->querier = querier;
  }

  // Probe order: lowest RTT first (the paper's main configuration).
  // K point queries, not a full source vector: with hub labels attached
  // each is an O(|label|) merge and no lookup runs Dijkstra.
  op.record = FindRecord(guid);
  std::vector<HostResolution> fresh;
  PlanProbesInto(Replicas(guid, op.record, fresh), querier,
                 ReplicaSelection::kLowestRtt, oracle_, op.plan);
  // One probe stream per read-quorum member (R <= K, so each stream
  // claims a replica up front).
  const auto streams = std::size_t(read_quorum_effective_);
  op.flow.Reset(op.plan.size(), streams, options_.probe_retries);
  op.timeouts.resize(streams);
  if (streams > 1) op.index_responded.assign(op.plan.size(), 0);

  // Local-replica race (Section III-C). A read quorum skips it, so the R
  // responses come from R distinct replicas and the W+R intersection
  // argument holds.
  if (streams == 1) {
    op.local = LocalReply::Race(
        options_, *graph_, querier, !failures_.IsFailedAt(querier, sim_.Now()),
        [&] { return nodes_[querier]->store().Lookup(guid); });
    if (op.local.has_value()) {
      op.local_reply =
          sim_.Schedule(SimTime::Millis(op.local->latency_ms),
                        [this, slot = op.slot, generation = op.generation] {
                          LocalReplyArrived(slot, generation);
                        });
    }
  }

  for (std::size_t stream = 0; stream < streams; ++stream) {
    SendProbe(op, stream);
  }
}

void ProtocolNetwork::LocalReplyArrived(std::uint32_t slot,
                                        std::uint32_t generation) {
  LookupOp* op = lookup_ops_.Find(slot, generation);
  if (op == nullptr) return;
  LookupResult result;
  op->local->Serve(result);
  CompleteLookup(*op, result, &op->local->entry);
}

void ProtocolNetwork::SendProbe(LookupOp& op, std::size_t stream) {
  if (!op.flow.Advance(stream)) return;
  // Streams claim plan indices in ascending order through the shared
  // cursor, so request_ids stays aligned: request_ids[i] is probe i's id.
  const std::size_t index = op.flow.stream(stream).index;
  op.request_ids.push_back(IssueRequestId(
      Route{op.slot, op.generation, std::uint32_t(index), false}));
  TransmitProbe(op, stream);
}

double ProtocolNetwork::ProbeTimeoutMs(const LookupOp& op,
                                       std::size_t stream) const {
  // The timeout adapts to the client's own RTT estimate for this replica
  // (it just used that estimate to order the probes) so a slow-but-alive
  // replica is never declared dead before its reply can arrive; on
  // retransmission it backs off exponentially.
  const LookupFlow::Stream& s = op.flow.stream(stream);
  return AdaptiveTimeoutMs(options_.failure_timeout_ms, s.retry,
                           options_.retry_backoff, op.plan[s.index].rtt);
}

void ProtocolNetwork::TransmitProbe(LookupOp& op, std::size_t stream) {
  const std::size_t index = op.flow.stream(stream).index;
  const PlannedProbe& probe = op.plan[index];
  const std::uint64_t id = op.request_ids[index];
  LookupRequest request;
  request.header = MessageHeader{id, op.querier, probe.host};
  request.guid = op.guid;

  // Arm the timeout; a response cancels it.
  op.timeouts[stream] =
      sim_.Schedule(SimTime::Millis(ProbeTimeoutMs(op, stream)),
                    [this, id] { ProbeTimedOut(id); });
  Send(request);
}

void ProtocolNetwork::ProbeTimedOut(std::uint64_t request_id) {
  // Completion cancels every timer, so the route is live; the probe's
  // stream is the one still awaiting its plan index, if any.
  const std::optional<Route> route = FindRoute(request_id);
  if (!route.has_value()) return;
  LookupOp& op = *lookup_ops_.Find(route->slot, route->generation);
  const std::size_t index = route->index;
  const std::size_t stream = op.flow.Awaiting(index);
  if (stream == LookupFlow::kNone) return;
  switch (op.flow.TimedOut(stream, index, ProbeTimeoutMs(op, stream))) {
    case LookupFlow::Timeout::kStale:
      return;
    case LookupFlow::Timeout::kRetransmit:
      // Same request id: a straggling reply to the original transmission
      // is indistinguishable from (and as good as) a reply to the retry.
      Bump(retransmissions_, ins_.retransmissions);
      TransmitProbe(op, stream);
      return;
    case LookupFlow::Timeout::kGiveUp:
      if (op.trace.has_value()) {
        op.trace->probes.push_back(
            ProbeEvent{op.plan[index].host, op.flow.stream(stream).charged_ms,
                       ProbeOutcome::kTimeout});
      }
      SendProbe(op, stream);
      MaybeCompleteLookup(op);
      return;
  }
}

void ProtocolNetwork::MaybeCompleteLookup(LookupOp& op) {
  if (op.flow.completed()) return;
  const bool answered = read_quorum_effective_ > 1
                            ? op.responses >= read_quorum_effective_
                            : !op.answers.empty();
  if (answered || !op.flow.Probing()) CompleteWithAnswers(op);
}

void ProtocolNetwork::CompleteWithAnswers(LookupOp& op) {
  // Winner: maximum logical stamp; a tie means the same write, broken
  // toward the lowest plan index for determinism.
  const MappingEntry* winner = nullptr;
  std::size_t winner_index = 0;
  for (const auto& [index, entry] : op.answers) {
    if (winner == nullptr || winner->stamp() < entry.stamp() ||
        (winner->stamp() == entry.stamp() && index < winner_index)) {
      winner = &entry;
      winner_index = index;
    }
  }

  LookupResult result;
  if (winner != nullptr) {
    result.found = true;
    result.nas = winner->nas;
    result.serving_as = op.plan[winner_index].host;
  }

  // Read-repair of *stale* answerers: replicas that replied with an older
  // stamp get the winner pushed back at them. (Empty repliers are handled
  // by the existing miss repair inside CompleteLookup.) Idempotent and
  // commutative at the store: the push is stamp-gated like any write.
  if (winner != nullptr && read_quorum_effective_ > 1) {
    for (const auto& [index, entry] : op.answers) {
      if (entry.stamp() < winner->stamp()) {
        const WriteTarget target{op.plan[index].host,
                                 op.plan[index].stored_address};
        SendRepairs(op.guid, op.querier, *winner, {&target, 1});
        ++read_repairs_;
        if (cins_.registered) {
          metrics_->Add(cins_.read_repairs, 1, metrics_shard_);
        }
      }
    }
    if (cins_.registered) {
      metrics_->Observe(cins_.read_quorum_latency_ms,
                        (sim_.Now() - op.started).millis(),
                        metrics_shard_);
    }
  }
  CompleteLookup(op, result, winner);
}

// ---------------------------------------------------------------------------
// Writes.

ProtocolNetwork::WriteOp& ProtocolNetwork::NewWriteOp() {
  WriteOp& op = write_ops_.Acquire();
  op.request_id =
      IssueRequestId(Route{op.slot, op.generation, 0, /*write=*/true});
  op.started = sim_.Now();
  return op;
}

ProtocolNetwork::ClientStamp ProtocolNetwork::ClientWrite(const Guid& guid,
                                                          NetworkAddress na) {
  const auto [it, fresh_guid] = records_.try_emplace(guid);
  GuidRecord& record = it->second;
  if (fresh_guid) registry_.push_back(&*it);
  ClientStamp stamp;
  stamp.record = &record;
  stamp.entry.nas = NaSet(na);
  stamp.entry.version = ++record.version;
  stamp.entry.writer = na.as;
  std::vector<HostResolution> fresh;
  stamp.hosts = Replicas(guid, &record, fresh);
  stamp.local_applied = options_.local_replica &&
                        nodes_[na.as]->store().Upsert(guid, stamp.entry);
  if (!fresh_guid && record.owner != na.as) {
    // The host left its previous attachment AS: delete the superseded
    // local copy there unless that AS is also a replica host, as the
    // closed form's StoreReplicas does.
    if (options_.local_replica &&
        std::ranges::find(stamp.hosts, record.owner, &HostResolution::host) ==
            stamp.hosts.end()) {
      nodes_[record.owner]->store().Erase(guid);
    }
  }
  record.owner = na.as;
  return stamp;
}

void ProtocolNetwork::InsertAsync(
    const Guid& guid, NetworkAddress na,
    std::function<void(const UpdateResult&)> done) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("InsertAsync: NA references unknown AS");
  }
  WriteOp& op = NewWriteOp();
  op.done = std::move(done);
  const ClientStamp stamp = ClientWrite(guid, na);
  op.committer = stamp.record;
  op.version = stamp.entry.version;
  op.stamp = stamp.entry.stamp();
  op.flow.Reset(write_quorum_effective_, stamp.local_applied);

  // All K messages go out regardless of W, so the message stream — and
  // every fault fate drawn from it — is identical across W settings.
  std::vector<Message> requests;
  requests.reserve(stamp.hosts.size());
  for (const HostResolution& resolution : stamp.hosts) {
    op.replicas.push_back(resolution.host);
    requests.push_back(InsertRequest{
        MessageHeader{op.request_id, na.as, resolution.host}, guid,
        stamp.entry, resolution.stored_address});
  }
  StartWrite(op, std::move(requests));
}

void ProtocolNetwork::StartWrite(WriteOp& op, std::vector<Message> requests) {
  op.timeouts.reserve(requests.size());
  for (const Message& request : requests) {
    const MessageHeader& header = HeaderOf(request);
    const std::size_t flow_slot = op.flow.AddSlot(header.dst);
    // The ack normally lands after one round trip; the stand-in timeout
    // resolves the slot when it never comes (replica down, request or ack
    // lost), so the write always completes.
    const double timeout_ms = StandInTimeoutMs(
        options_.failure_timeout_ms, options_.retry_backoff,
        2.0 * oracle_.OneWayMs(header.src, header.dst));
    op.timeouts.push_back(sim_.Schedule(
        SimTime::Millis(timeout_ms),
        [this, slot = op.slot, generation = op.generation, flow_slot] {
          WriteTimedOut(slot, generation, flow_slot);
        }));
    Send(request);
  }
  AdvanceWrite(op);  // an empty write completes at once
}

void ProtocolNetwork::WriteTimedOut(std::uint32_t slot,
                                    std::uint32_t generation,
                                    std::size_t flow_slot) {
  // A write is released only once every slot resolved, by its ack (which
  // cancels the timer) or by this timer, so the op is still live here.
  WriteOp* op = write_ops_.Find(slot, generation);
  if (op != nullptr && op->flow.TimedOut(flow_slot)) AdvanceWrite(*op);
}

void ProtocolNetwork::AdvanceWrite(WriteOp& op) {
  const bool resolved = op.flow.resolved();
  const WriteFlow::Verdict verdict = op.flow.TakeVerdict();
  if (verdict == WriteFlow::Verdict::kPending) {
    if (resolved) write_ops_.Release(op);
    return;
  }
  const double latency_ms = (sim_.Now() - op.started).millis();
  if (verdict == WriteFlow::Verdict::kCommitted) {
    // Only client inserts have W > 1, which makes QuorumActive() true.
    LogicalStamp& committed = op.committer->committed;
    if (committed < op.stamp) committed = op.stamp;
    if (cins_.registered) {
      metrics_->Observe(cins_.write_quorum_latency_ms, latency_ms,
                        metrics_shard_);
    }
  } else if (verdict == WriteFlow::Verdict::kQuorumFailed) {
    // Replicas that did apply keep the newer entry (no rollback —
    // read-repair and anti-entropy converge the rest), but the stamp is not
    // committed and the caller is told, never a silent partial write.
    ++quorum_failures_;
    if (cins_.registered) {
      metrics_->Add(cins_.quorum_failures, 1, metrics_shard_);
    }
  }
  // The verdict is reported once, so the callbacks move out of the op; a
  // resolved op is released before they run, since they may start writes.
  const std::function<void(const UpdateResult&)> done =
      std::exchange(op.done, nullptr);
  const std::function<void(const BatchUpdateResult&)> batch_done =
      std::exchange(op.batch_done, nullptr);
  std::optional<BatchUpdateResult> batch = std::move(op.batch);
  UpdateResult result;
  if (!batch.has_value() && done) {
    result.latency_ms = latency_ms;
    result.replicas = op.replicas;
    result.version = op.version;
    if (verdict == WriteFlow::Verdict::kQuorumFailed) {
      result.status = ResolverStatus::kQuorumFailed;
    }
  }
  if (resolved) write_ops_.Release(op);
  if (batch.has_value()) {
    batch->latency_ms = latency_ms;
    batch_done(*batch);
  } else if (done) {
    done(result);
  }
}

bool ProtocolNetwork::HandleWriteAck(const MessageHeader& header,
                                     std::uint64_t applied) {
  const std::optional<Route> route = FindRoute(header.request_id);
  if (!route.has_value() || !route->write) return false;
  WriteOp& op = *write_ops_.Find(route->slot, route->generation);
  const std::size_t slot = op.flow.Ack(header.src, applied != 0);
  if (slot == WriteFlow::kNone) {
    // A duplicate, or the slot already timed out; a late applied ack may
    // still complete the quorum.
    AdvanceWrite(op);
    Bump(late_replies_, ins_.late_replies);
    return true;
  }
  op.timeouts[slot].Cancel();
  if (op.batch.has_value()) op.batch->entries_applied += applied;
  AdvanceWrite(op);
  return true;
}

void ProtocolNetwork::BatchUpdateAsync(
    const std::vector<std::pair<Guid, NetworkAddress>>& moves,
    std::function<void(const BatchUpdateResult&)> done) {
  if (moves.empty()) {
    done(BatchUpdateResult{});
    return;
  }
  // One batch models one migrating host: every GUID lands at the same new
  // attachment AS, so the updates share a source gateway and can share
  // messages.
  const AsId src_as = moves.front().second.as;
  for (const auto& [guid, na] : moves) {
    if (na.as >= graph_->num_nodes()) {
      throw std::invalid_argument(
          "BatchUpdateAsync: NA references unknown AS");
    }
    if (na.as != src_as) {
      throw std::invalid_argument(
          "BatchUpdateAsync: all moves must share one destination AS");
    }
  }

  WriteOp& op = NewWriteOp();
  BatchUpdateResult& batch = op.batch.emplace();
  batch.guids = int(moves.size());
  op.batch_done = std::move(done);

  // Group each GUID's K replica writes by destination AS: one
  // BatchUpdateRequest per distinct AS carries every entry hashed there,
  // stamped exactly as the K singleton InsertRequests would have been, so
  // replica stores end bit-identical to the sequential wave. Destinations
  // keep first-seen order — deterministic, no map iteration.
  std::vector<AsId> order;
  std::unordered_map<AsId, std::vector<BatchUpdateEntry>> grouped;
  for (const auto& [guid, na] : moves) {
    const ClientStamp stamp = ClientWrite(guid, na);
    for (const HostResolution& r : stamp.hosts) {
      const auto [it, fresh] = grouped.try_emplace(r.host);
      if (fresh) order.push_back(r.host);
      it->second.push_back(
          BatchUpdateEntry{guid, stamp.entry, r.stored_address});
      ++batch.unbatched_messages;
      ++batch.entries;
    }
  }

  // One message per destination, each on a write slot like an insert's.
  batch.messages = order.size();
  std::vector<Message> requests;
  requests.reserve(order.size());
  for (const AsId dst : order) {
    requests.push_back(BatchUpdateRequest{
        MessageHeader{op.request_id, src_as, dst}, std::move(grouped[dst])});
  }
  StartWrite(op, std::move(requests));
}

void ProtocolNetwork::WithdrawPrefixAsync(
    const Cidr& prefix, AsId owner, PrefixTable& table,
    std::function<void(int migrated)> done) {
  if (owner >= graph_->num_nodes()) {
    throw std::invalid_argument("WithdrawPrefixAsync: unknown owner AS");
  }
  // 1. Collect the mappings this withdrawal orphans, with their
  //    pre-withdrawal chains: every entry the owner holds under the prefix,
  //    and every one whose chain Algorithm 1 placed at the owner inside
  //    the prefix. The owner derives both from its own BGP view alone. The
  //    second scan is needed because a store keeps one entry per GUID,
  //    under the address its last write named, which may lie in another
  //    of the owner's prefixes.
  struct Affected {
    Guid guid;
    GuidRecord* record;
    MappingEntry entry;
    std::vector<HostResolution> before;
  };
  std::vector<Affected> affected;
  std::unordered_set<Guid, GuidHash> listed;
  std::vector<HostResolution> fresh;
  const MappingStore& store = nodes_[owner]->store();
  store.ForEachStoredIn(
      prefix, [&](const Guid& guid, const MappingEntry& entry) {
        listed.insert(guid);
        GuidRecord* record = FindRecord(guid);
        const std::span<const HostResolution> chain =
            Replicas(guid, record, fresh);
        affected.push_back(
            Affected{guid, record, entry, {chain.begin(), chain.end()}});
      });
  store.ForEach([&](const Guid& guid, const MappingEntry& entry) {
    if (listed.contains(guid)) return;
    GuidRecord* record = FindRecord(guid);
    const std::span<const HostResolution> chain = Replicas(guid, record, fresh);
    if (std::any_of(chain.begin(), chain.end(), [&](const HostResolution& r) {
          return r.host == owner && prefix.Contains(r.stored_address);
        })) {
      affected.push_back(
          Affected{guid, record, entry, {chain.begin(), chain.end()}});
    }
  });

  // 2. Withdraw: from here on, every gateway's rehash chain skips the
  //    prefix, so the post-withdrawal resolutions are exactly where queries
  //    will look next.
  if (!table.Withdraw(prefix)) {
    throw std::invalid_argument("WithdrawPrefixAsync: prefix not announced");
  }

  // 3. Hand each mapping to the deputies its chains moved to, and drop the
  //    owner's copy — unless a new chain lands back on the owner through
  //    another of its prefixes: that copy is rewritten in place under its
  //    new stored address, no message. One write op tracks the handoffs;
  //    each deputy write gets a slot whose timeout stands in for a lost
  //    ack, so the handoff always completes (at once when nothing is
  //    sent).
  WriteOp& op = NewWriteOp();
  const int migrated = int(affected.size());
  op.done = [done = std::move(done), migrated](const UpdateResult&) {
    done(migrated);
  };
  std::vector<Message> handoffs;
  for (const Affected& a : affected) {
    nodes_[owner]->store().Erase(a.guid);
    const std::span<const HostResolution> after =
        Replicas(a.guid, a.record, fresh);
    for (std::size_t replica = 0; replica < after.size(); ++replica) {
      const HostResolution& r = after[replica];
      if (r.host == owner) {
        nodes_[owner]->store().Upsert(a.guid, a.entry, r.stored_address);
        continue;
      }
      if (r.host == a.before[replica].host) continue;  // unmoved
      handoffs.push_back(
          InsertRequest{MessageHeader{op.request_id, owner, r.host}, a.guid,
                        a.entry, r.stored_address});
    }
  }
  StartWrite(op, std::move(handoffs));
}

void ProtocolNetwork::SendRepairs(const Guid& guid, AsId src,
                                  const MappingEntry& entry,
                                  std::span<const WriteTarget> targets) {
  WriteOp& op = NewWriteOp();
  std::vector<Message> requests;
  requests.reserve(targets.size());
  for (const WriteTarget& target : targets) {
    requests.push_back(
        InsertRequest{MessageHeader{op.request_id, src, target.host}, guid,
                      entry, target.stored_address});
  }
  StartWrite(op, std::move(requests));
}

// ---------------------------------------------------------------------------
// Anti-entropy.

int ProtocolNetwork::RunAntiEntropyRound(int budget) {
  if (budget <= 0 || registry_.empty()) return 0;
  int repairs = 0;
  const std::size_t examine = std::min(std::size_t(budget), registry_.size());
  struct ReplicaState {
    WriteTarget target;
    const MappingEntry* entry = nullptr;
  };
  std::vector<ReplicaState> states;
  std::vector<HostResolution> fresh;
  for (std::size_t step = 0; step < examine; ++step) {
    auto& [guid, record] = *registry_[registry_cursor_ % registry_.size()];
    registry_cursor_ = (registry_cursor_ + 1) % registry_.size();

    // Direct store scan at the serial point: find the freshest replica's
    // entry, then push it to every replica that is behind or empty. The
    // pushes are real InsertRequests — encoded, counted, and subject to
    // the fault plan like any other message.
    states.clear();
    const MappingEntry* freshest = nullptr;
    AsId freshest_host = kInvalidAs;
    for (const HostResolution& resolution : Replicas(guid, &record, fresh)) {
      ReplicaState state;
      state.target = {resolution.host, resolution.stored_address};
      state.entry = nodes_[resolution.host]->store().Lookup(guid);
      if (state.entry != nullptr &&
          (freshest == nullptr || freshest->stamp() < state.entry->stamp())) {
        freshest = state.entry;
        freshest_host = resolution.host;
      }
      states.push_back(state);
    }
    // The owner's local copy can be the only survivor (every global
    // wiped): it seeds re-replication too.
    if (options_.local_replica) {
      const MappingEntry* local = nodes_[record.owner]->store().Lookup(guid);
      if (local != nullptr &&
          (freshest == nullptr || freshest->stamp() < local->stamp())) {
        freshest = local;
        freshest_host = record.owner;
      }
    }
    if (freshest == nullptr) continue;  // nobody has it; nothing to sync
    const MappingEntry push = *freshest;  // stores may mutate during sends
    for (const ReplicaState& state : states) {
      if (state.target.host == freshest_host) continue;
      if (state.entry != nullptr && !(state.entry->stamp() < push.stamp())) {
        continue;  // already current
      }
      SendRepairs(guid, freshest_host, push, {&state.target, 1});
      ++repairs;
      ++anti_entropy_repairs_;
      if (cins_.registered) {
        metrics_->Add(cins_.anti_entropy_repairs, 1, metrics_shard_);
      }
    }
  }
  return repairs;
}

}  // namespace dmap
