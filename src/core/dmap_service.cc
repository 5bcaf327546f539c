#include "core/dmap_service.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/retry_policy.h"

namespace dmap {

void ProtocolOptions::Validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ProtocolOptions: " + what);
  };
  if (k < 1) reject("k must be >= 1 (got " + std::to_string(k) + ")");
  if (max_hashes < 1) {
    reject("max_hashes must be >= 1 (got " + std::to_string(max_hashes) +
           ")");
  }
  if (!(failure_timeout_ms >= 0.0)) {  // also rejects NaN
    reject("failure_timeout_ms must be >= 0 (got " +
           std::to_string(failure_timeout_ms) + ")");
  }
  if (probe_retries < 0) {
    reject("probe_retries must be >= 0 (got " +
           std::to_string(probe_retries) + ")");
  }
  if (!(retry_backoff >= 1.0)) {  // also rejects NaN
    reject("retry_backoff must be >= 1 (got " +
           std::to_string(retry_backoff) + ")");
  }
  if (write_quorum < 0) {
    reject("write_quorum must be >= 0 (0 = majority; got " +
           std::to_string(write_quorum) + ")");
  }
}

void DMapOptions::Validate() const {
  ProtocolOptions::Validate();
  if (store_shards < 0 ||
      store_shards > int(ShardedMappingStore::kMaxShards)) {
    throw std::invalid_argument(
        "DMapOptions: store_shards must be in [0, " +
        std::to_string(ShardedMappingStore::kMaxShards) + "] (got " +
        std::to_string(store_shards) + ")");
  }
  cache.Validate();
}

DMapService::DMapService(const AsGraph& graph, const PrefixTable& table,
                         const DMapOptions& options)
    : graph_(&graph),
      options_((options.Validate(), options)),
      hashes_(options.k, options.hash_seed),
      resolver_(hashes_, table, options.max_hashes),
      oracle_(graph),
      store_(graph.num_nodes(), unsigned(options.store_shards)) {
  // The resolver's DIR-24-8 snapshot is built at the first serial write
  // point, not here: the prefix table is typically still being announced
  // when the service is constructed.
  if (options_.cache.enabled()) {
    cache_ = std::make_unique<ResolverCache>(options_.cache);
  }
}

void DMapService::SetMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  resolver_.SetMetrics(registry);
  if (registry == nullptr) return;
  ins_.inserts = registry->Counter("dmap.inserts");
  ins_.updates = registry->Counter("dmap.updates");
  ins_.add_attachments = registry->Counter("dmap.add_attachments");
  ins_.deregisters = registry->Counter("dmap.deregisters");
  ins_.rehomes = registry->Counter("dmap.rehomes");
  ins_.replicas_moved = registry->Counter("dmap.replicas_moved");
  ins_.lookups = registry->Counter("dmap.lookups");
  ins_.lookup_hits = registry->Counter("dmap.lookup_hits");
  ins_.lookup_misses = registry->Counter("dmap.lookup_misses");
  ins_.local_wins = registry->Counter("dmap.local_wins");
  ins_.probes = registry->Counter("dmap.probes");
  ins_.probe_misses = registry->Counter("dmap.probe_misses");
  ins_.probe_failures = registry->Counter("dmap.probe_failures");
  ins_.hash_evaluations = registry->Counter("dmap.hash_evaluations");
  // How a resolution was obtained, not what it is: kExecution keeps it out
  // of the deterministic exports, whose bytes predate the reuse.
  ins_.resolutions_reused = registry->Counter("dmap.resolutions_reused",
                                              MetricStability::kExecution);
  ins_.lookup_latency_ms = registry->Histogram(
      "dmap.lookup_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.update_latency_ms = registry->Histogram(
      "dmap.update_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.lookup_attempts = registry->Histogram(
      "dmap.lookup_attempts", MetricsRegistry::CountBoundaries());
}

void DMapService::AccountUpdate(const UpdateResult& result,
                                CounterId op_counter, unsigned shard) {
  metrics_->Add(op_counter, 1, shard);
  metrics_->Add(ins_.hash_evaluations,
                std::uint64_t(result.hash_evaluations), shard);
  if (result.latency_ms >= 0) {
    metrics_->Observe(ins_.update_latency_ms, result.latency_ms, shard);
  }
}

UpdateResult DMapService::WriteReplicas(const Guid& guid, OwnerState& state,
                                        AsId src_as, unsigned shard) {
  UpdateResult result = StoreReplicas(guid, state, shard);
  if (options_.measure_update_latency) {
    std::vector<double> rtts(result.replicas.size());
    oracle_.RttsMs(src_as, result.replicas.data(), rtts.size(), rtts.data(),
                   shard);
    AckLatency(rtts.data(), result);
  }
  return result;
}

UpdateResult DMapService::StoreReplicas(const Guid& guid, OwnerState& state,
                                        unsigned shard) {
  UpdateResult result;
  result.version = state.version;

  // Writes are serial by contract (store_ is WRITE_SERIAL_READ_SHARED),
  // which makes this a safe point to catch the resolver's snapshot up
  // with any BGP churn since the last write.
  resolver_.RefreshSnapshot();

  std::vector<HostResolution> fresh;
  const std::span<const HostResolution> resolutions =
      Resolutions(guid, &state, fresh, shard);
  result.replicas.reserve(resolutions.size());
  for (const HostResolution& r : resolutions) {
    result.replicas.push_back(r.host);
    result.hash_evaluations += r.hash_count;
  }
  const std::vector<AsId>& new_replicas = result.replicas;

  const MappingEntry entry{state.nas, state.version, state.writer};
  for (const HostResolution& r : resolutions) {
    store_.Upsert(r.host, guid, entry, r.stored_address);
  }
  // `fresh` is filled only when the stored resolutions were absent or
  // stale: keep the new ones, and drop the replicas that left the set (set
  // difference; K is tiny so quadratic is fine). Only the first write and
  // Rehome/Update after churn get here; a reused set has no stale replica.
  if (!fresh.empty()) {
    for (const HostResolution& old : state.replicas.resolutions) {
      if (std::find(new_replicas.begin(), new_replicas.end(), old.host) ==
          new_replicas.end()) {
        store_.Erase(old.host, guid);
      }
    }
    resolver_.Keep(state.replicas, std::move(fresh));
  }

  // Local replica at the attachment AS (Section III-C).
  if (options_.local_replica) {
    const AsId new_local = state.nas.empty() ? kInvalidAs : state.nas[0].as;
    if (state.local_as != new_local && state.local_as != kInvalidAs) {
      // The host left this AS; the old local copy is deleted unless the AS
      // also serves as a global replica.
      if (std::find(new_replicas.begin(), new_replicas.end(),
                    state.local_as) == new_replicas.end()) {
        store_.Erase(state.local_as, guid);
      }
    }
    if (new_local != kInvalidAs) store_.Upsert(new_local, guid, entry);
    state.local_as = new_local;
  }

  result.attempts = int(new_replicas.size());

  // Invalidate-on-update coherence: drop every AS's cached copy at the
  // same serial write point the replicas change, so no cache can serve
  // the superseded NA set. TTL-only mode skips this — bounded staleness
  // is the trade being measured.
  if (cache_ != nullptr && options_.cache.invalidate_on_update) {
    cache_->Invalidate(guid);
  }
  return result;
}

void DMapService::AckLatency(const double* rtts, UpdateResult& result) const {
  // WriteFlow's completion rule (core/write_flow.h) in closed form. With
  // W <= 1 the update completes at the slowest round trip (Section III-A,
  // the paper's model, bit-exact with the pre-quorum behaviour). With
  // W >= 2 it completes at the W-th applied ack — the local copy acks at
  // kLocalAckMs, a dead replica never acks — and reports kQuorumFailed
  // when fewer than W replicas are reachable, at the time the last
  // stand-in timeout fires.
  const std::vector<AsId>& replicas = result.replicas;
  const int w = WriteQuorum(options_.write_quorum, replicas.size(),
                            options_.local_replica);
  if (w <= 1) {
    double max_rtt = 0.0;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      max_rtt = std::max(max_rtt, rtts[i]);
    }
    result.latency_ms = max_rtt;
    return;
  }
  std::vector<double> acks;  // arrival times of applied acks
  acks.reserve(replicas.size() + 1);
  if (options_.local_replica) acks.push_back(kLocalAckMs);
  double last_resolved = 0.0;  // when the final slot acks or times out
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const double rtt = rtts[i];
    if (failures_.IsFailed(replicas[i])) {
      last_resolved = std::max(
          last_resolved, StandInTimeoutMs(options_.failure_timeout_ms,
                                          options_.retry_backoff, rtt));
      continue;
    }
    acks.push_back(rtt);
    last_resolved = std::max(last_resolved, rtt);
  }
  if (int(acks.size()) < w) {
    result.status = ResolverStatus::kQuorumFailed;
    result.latency_ms = last_resolved;
  } else {
    std::sort(acks.begin(), acks.end());
    result.latency_ms = acks[std::size_t(w - 1)];
  }
}

UpdateResult DMapService::Insert(const Guid& guid, NetworkAddress na) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("Insert: NA references unknown AS");
  }
  OwnerState& state = owners_[guid];
  state.nas = NaSet(na);
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.inserts, 0);
  return result;
}

UpdateResult DMapService::Update(const Guid& guid, NetworkAddress na) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("Update: NA references unknown AS");
  }
  const auto it = owners_.find(guid);
  if (it == owners_.end()) {
    throw std::invalid_argument("Update: unknown GUID (insert first)");
  }
  OwnerState& state = it->second;
  state.nas = NaSet(na);
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.updates, 0);
  return result;
}

BatchUpdateResult DMapService::BatchUpdate(
    const std::vector<std::pair<Guid, NetworkAddress>>& moves) {
  BatchUpdateResult batch;
  if (moves.empty()) return batch;
  // A batch models one migrating host: every GUID lands at the same new
  // attachment AS, so all updates share a source and can share messages.
  const AsId src_as = moves.front().second.as;
  std::vector<OwnerState*> states;
  states.reserve(moves.size());
  for (const auto& [guid, na] : moves) {
    if (na.as >= graph_->num_nodes()) {
      throw std::invalid_argument("BatchUpdate: NA references unknown AS");
    }
    if (na.as != src_as) {
      throw std::invalid_argument(
          "BatchUpdate: all moves must share one destination AS");
    }
    const auto it = owners_.find(guid);
    if (it == owners_.end()) {
      throw std::invalid_argument("BatchUpdate: unknown GUID (insert first)");
    }
    states.push_back(&it->second);
  }

  // Each GUID goes through the exact sequential-update mutation — same
  // owner-state transition, same StoreReplicas, same ack arithmetic, same
  // metrics accounting — so store contents, per-GUID results and dmap.*
  // exports are bit-identical to issuing the updates one by one. Only the
  // message accounting (and the completion time, one message wave instead
  // of N) differs.
  batch.per_guid.reserve(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    OwnerState& state = *states[i];
    state.nas = NaSet(moves[i].second);
    ++state.version;
    state.writer = src_as;
    batch.per_guid.push_back(StoreReplicas(moves[i].first, state, 0));
  }
  // Every move shares the writer, so one one-to-many RTT query over the
  // concatenated replica lists prices every GUID's acknowledgements.
  if (options_.measure_update_latency) {
    std::vector<AsId> hosts;
    for (const UpdateResult& result : batch.per_guid) {
      hosts.insert(hosts.end(), result.replicas.begin(), result.replicas.end());
    }
    std::vector<double> rtts(hosts.size());
    oracle_.RttsMs(src_as, hosts.data(), hosts.size(), rtts.data(), 0);
    const double* next = rtts.data();
    for (UpdateResult& result : batch.per_guid) {
      AckLatency(next, result);
      next += result.replicas.size();
    }
  }

  std::vector<AsId> destinations;  // distinct replica-host ASes, batched
  double max_latency = -1.0;
  for (const UpdateResult& result : batch.per_guid) {
    if (metrics_) AccountUpdate(result, ins_.updates, 0);

    batch.unbatched_messages += result.replicas.size();
    batch.entries += result.replicas.size();
    batch.hash_evaluations += result.hash_evaluations;
    max_latency = std::max(max_latency, result.latency_ms);
    if (result.status != ResolverStatus::kOk &&
        batch.status == ResolverStatus::kOk) {
      batch.status = result.status;
    }
    for (const AsId host : result.replicas) {
      if (std::find(destinations.begin(), destinations.end(), host) ==
          destinations.end()) {
        destinations.push_back(host);
      }
    }
  }
  batch.guids = int(moves.size());
  batch.messages = destinations.size();
  batch.entries_applied = batch.entries;
  batch.latency_ms = max_latency;
  return batch;
}

UpdateResult DMapService::AddAttachment(const Guid& guid, NetworkAddress na) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("AddAttachment: NA references unknown AS");
  }
  const auto it = owners_.find(guid);
  if (it == owners_.end()) {
    throw std::invalid_argument("AddAttachment: unknown GUID");
  }
  OwnerState& state = it->second;
  if (!state.nas.Add(na)) {
    throw std::invalid_argument(
        "AddAttachment: NA already present or NA set full");
  }
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.add_attachments, 0);
  return result;
}

bool DMapService::Deregister(const Guid& guid) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) return false;
  OwnerState& state = it->second;
  for (const HostResolution& r : state.replicas.resolutions) {
    store_.Erase(r.host, guid);
  }
  if (state.local_as != kInvalidAs) store_.Erase(state.local_as, guid);
  owners_.erase(it);
  // A deregistered GUID must not be served from any cache, whatever the
  // coherence mode.
  if (cache_ != nullptr) cache_->Invalidate(guid);
  if (metrics_) metrics_->Add(ins_.deregisters, 1, 0);
  return true;
}

LookupResult DMapService::LookupInternal(
    const Guid& guid, AsId querier, std::span<const HostResolution> replicas,
    unsigned shard, char op) {
  LookupResult result;
  const std::uint64_t guid_fp = guid.Fingerprint64();
  ProbeTrace* trace = nullptr;
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    result.trace.emplace();
    trace = &*result.trace;
    trace->op = op;
    trace->guid_fp = guid.Fingerprint64();
    trace->querier = querier;
    for (const HostResolution& r : replicas) {
      trace->hash_evaluations += r.hash_count;
    }
  }

  // Global resolution: walk replicas in preference order; each miss or
  // failure costs time before the next probe goes out.
  double global_cost = 0.0;
  bool global_found = false;
  int probe_misses = 0;
  int probe_failures = 0;
  NaSet global_nas;
  AsId global_server = kInvalidAs;
  const MappingEntry* global_entry = nullptr;
  for (const auto& [host, rtt, stored_address] :
       PlanProbes(replicas, querier, options_.selection, oracle_, shard)) {
    ++result.attempts;
    if (failures_.IsFailed(host)) {
      // The client burns its whole retry budget on a dead replica before
      // falling through (fault/retry_policy.h keeps this aligned with the
      // event-driven and wire paths).
      const double cost = TotalTimeoutCostMs(
          options_.failure_timeout_ms, options_.probe_retries,
          options_.retry_backoff);
      global_cost += cost;
      ++probe_failures;
      if (trace) {
        trace->probes.push_back(
            ProbeEvent{host, cost, ProbeOutcome::kFailed});
      }
      continue;
    }
    if (const MappingEntry* entry = store_.Read(host, guid, guid_fp)) {
      global_cost += rtt;
      global_found = true;
      global_nas = entry->nas;
      global_server = host;
      global_entry = entry;
      if (trace) {
        trace->probes.push_back(ProbeEvent{host, rtt, ProbeOutcome::kHit});
      }
      break;
    }
    // "GUID missing" reply: a full round trip wasted.
    global_cost += rtt;
    ++probe_misses;
    if (trace) {
      trace->probes.push_back(ProbeEvent{host, rtt, ProbeOutcome::kMiss});
    }
  }

  // Local resolution, raced in parallel (Section III-C).
  const std::optional<LocalReply> local = LocalReply::Race(
      options_, *graph_, querier, !failures_.IsFailed(querier),
      [&] { return store_.Read(querier, guid, guid_fp); });

  if (local && (!global_found || local->latency_ms <= global_cost)) {
    local->Serve(result);
  } else if (global_found) {
    result.found = true;
    result.nas = global_nas;
    result.latency_ms = global_cost;
    result.serving_as = global_server;
  } else {
    // Total miss: the querier burnt every probe.
    result.latency_ms = global_cost;
  }

  // Resolver-cache fill: remember globally served answers (a local win
  // already costs exactly what a cache hit would, so caching it buys
  // nothing). Buffered per worker lane; merged and published at the next
  // serial point.
  if (cache_ != nullptr && global_found && !result.served_locally) {
    cache_->RecordFill(shard, querier, guid, *global_entry, cache_now_);
  }

  if (metrics_) {
    metrics_->Add(ins_.lookups, 1, shard);
    metrics_->Add(result.found ? ins_.lookup_hits : ins_.lookup_misses, 1,
                  shard);
    if (result.served_locally) metrics_->Add(ins_.local_wins, 1, shard);
    metrics_->Add(ins_.probes, std::uint64_t(result.attempts), shard);
    metrics_->Add(ins_.probe_misses, std::uint64_t(probe_misses), shard);
    metrics_->Add(ins_.probe_failures, std::uint64_t(probe_failures), shard);
    metrics_->Observe(ins_.lookup_latency_ms, result.latency_ms, shard);
    metrics_->Observe(ins_.lookup_attempts, double(result.attempts), shard);
  }
  if (trace) {
    trace->found = result.found;
    trace->local_won = result.served_locally;
    trace->latency_ms = result.latency_ms;
    trace->attempts = result.attempts;
    tracer_->Record(shard, *trace);
  }
  return result;
}

const DMapService::OwnerState* DMapService::FindOwner(
    const Guid& guid) const {
  const auto it = owners_.find(guid);
  return it == owners_.end() ? nullptr : &it->second;
}

std::span<const HostResolution> DMapService::Resolutions(
    const Guid& guid, const OwnerState* state,
    std::vector<HostResolution>& fresh, unsigned shard) const {
  const std::span<const HostResolution> resolutions =
      resolver_.ResolveOrReuse(
          guid, state != nullptr ? &state->replicas : nullptr, fresh, shard);
  if (fresh.empty() && metrics_) {
    metrics_->Add(ins_.resolutions_reused, 1, shard);
  }
  return resolutions;
}

std::vector<HostResolution> DMapService::ReplicaResolutions(
    const Guid& guid, unsigned shard) const {
  std::vector<HostResolution> fresh;
  const std::span<const HostResolution> resolutions =
      Resolutions(guid, FindOwner(guid), fresh, shard);
  return {resolutions.begin(), resolutions.end()};
}

bool DMapService::IsStaleStamp(const Guid& guid,
                               const LogicalStamp& stamp) const {
  const OwnerState* state = FindOwner(guid);
  if (state == nullptr) return false;
  return stamp < LogicalStamp{state->version, state->writer};
}

LookupResult DMapService::ServeFromCache(const Guid& guid, AsId querier,
                                         const MappingEntry& cached,
                                         unsigned shard, char op) {
  LookupResult result;
  result.found = true;
  result.nas = cached.nas;
  result.serving_as = querier;
  result.served_from_cache = true;
  result.attempts = 0;  // no replica probe left the querier AS
  result.latency_ms = 2.0 * graph_->IntraLatencyMs(querier);

  // Staleness bookkeeping: a cached stamp behind the owner table's
  // authoritative one means this lookup served a superseded NA set — the
  // cost of TTL coherence, tallied so the frontier experiments score it.
  if (IsStaleStamp(guid, cached.stamp())) cache_->TallyStaleServed(shard);

  if (metrics_) {
    metrics_->Add(ins_.lookups, 1, shard);
    metrics_->Add(ins_.lookup_hits, 1, shard);
    metrics_->Observe(ins_.lookup_latency_ms, result.latency_ms, shard);
    metrics_->Observe(ins_.lookup_attempts, 0.0, shard);
  }
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    result.trace.emplace();
    result.trace->op = op;
    result.trace->guid_fp = guid.Fingerprint64();
    result.trace->querier = querier;
    result.trace->found = true;
    result.trace->latency_ms = result.latency_ms;
    result.trace->attempts = 0;
    tracer_->Record(shard, *result.trace);
  }
  return result;
}

LookupResult DMapService::Lookup(const Guid& guid, AsId querier,
                                 unsigned shard) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("Lookup: unknown querier AS");
  }
  if (cache_ != nullptr) {
    const MappingEntry* cached =
        cache_->Probe(querier, guid, guid.Fingerprint64(), cache_now_);
    cache_->TallyProbe(shard, cached != nullptr);
    if (cached != nullptr) {
      return ServeFromCache(guid, querier, *cached, shard, 'L');
    }
  }
  std::vector<HostResolution> fresh;
  return LookupInternal(guid, querier,
                        Resolutions(guid, FindOwner(guid), fresh, shard),
                        shard, 'L');
}

LookupResult DMapService::LookupWithView(const Guid& guid, AsId querier,
                                         const PrefixTable& view,
                                         unsigned shard) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("LookupWithView: unknown querier AS");
  }
  // The cache is consulted under any BGP view: a cached copy was filled
  // from a completed resolution, and a gateway's cache outlives its
  // (possibly stale) prefix table.
  if (cache_ != nullptr) {
    const MappingEntry* cached =
        cache_->Probe(querier, guid, guid.Fingerprint64(), cache_now_);
    cache_->TallyProbe(shard, cached != nullptr);
    if (cached != nullptr) {
      return ServeFromCache(guid, querier, *cached, shard, 'V');
    }
  }
  // Always resolved against `view`, never through Resolutions: the stored
  // resolutions follow the authoritative table, and a view is stamped by
  // its own epoch counter (a copy of the table shares its epoch).
  HoleResolver view_resolver(hashes_, view, options_.max_hashes);
  return LookupInternal(guid, querier, view_resolver.ResolveAll(guid), shard,
                        'V');
}

std::vector<PlannedProbe> DMapService::Plan(const Guid& guid, AsId querier,
                                            unsigned shard) {
  std::vector<HostResolution> fresh;
  return PlanProbes(Resolutions(guid, FindOwner(guid), fresh, shard), querier,
                    options_.selection, oracle_, shard);
}

void DMapService::SetFailedAses(const std::vector<AsId>& failed) {
  failures_.SetFailed(failed);
}

int DMapService::Rehome(const Guid& guid) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) return 0;
  OwnerState& state = it->second;
  const std::vector<HostResolution> before = state.replicas.resolutions;
  const UpdateResult result =
      WriteReplicas(guid, state, state.nas.empty() ? 0 : state.nas[0].as);
  int moved = 0;
  for (std::size_t i = 0; i < result.replicas.size(); ++i) {
    if (i >= before.size() || before[i].host != result.replicas[i]) ++moved;
  }
  if (metrics_) {
    metrics_->Add(ins_.rehomes, 1, 0);
    metrics_->Add(ins_.replicas_moved, std::uint64_t(moved), 0);
  }
  return moved;
}

std::vector<Guid> DMapService::GuidsStoredIn(AsId as,
                                             const Cidr& prefix) const {
  return store_.GuidsStoredIn(as, prefix);
}

}  // namespace dmap
