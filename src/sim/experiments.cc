#include "sim/experiments.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "baseline/central_directory.h"
#include "baseline/chord_dht.h"
#include "baseline/home_agent.h"
#include "baseline/resolver.h"
#include "bgp/churn.h"
#include "common/logging.h"
#include "core/hole_resolver.h"
#include "obs/oracle_metrics.h"
#include "obs/store_metrics.h"
#include "runtime/thread_pool.h"

namespace dmap {

DMapOptions ResponseTimeConfig::ServiceOptions() const {
  DMapOptions options;
  options.k = k;
  options.local_replica = local_replica;
  options.selection = selection;
  options.store_shards = shards;
  options.measure_update_latency = false;  // only lookups are measured
  return options;
}

namespace {

// Seed of every churn view RunChurnSweep draws.
constexpr std::uint64_t kChurnSeed = 99;
// Seed of RunLoadBalanceExperiment's GUID stream.
constexpr std::uint64_t kLoadBalanceGuidSeed = 11;

void LoadMappings(DMapService& service, WorkloadGenerator& workload) {
  for (const InsertOp& op : workload.Inserts()) {
    // Load phase: placement outcomes are not part of the measurement.
    (void)service.Insert(op.guid, op.na);
  }
  // The load phase is the last serial write point before the parallel
  // measurement loop: publish the store/resolver read snapshots here so
  // the lookup workers read lock-free (WRITE_SERIAL_READ_SHARED).
  service.RefreshReadSnapshots();
}

// Attaches the config's observability sinks to `service` (call before the
// insert phase so registrations and insert accounting land too).
void WireObservability(DMapService& service,
                       const ResponseTimeConfig& config) {
  if (config.metrics != nullptr) service.SetMetrics(config.metrics);
  if (config.tracer != nullptr) service.SetTracer(config.tracer);
}

// Grows the sinks' per-worker state for the parallel phase. Single-threaded;
// call after the ThreadPool resolved its size, before RunChunks.
void EnsureObsWorkers(const ResponseTimeConfig& config, unsigned workers) {
  if (config.metrics != nullptr) config.metrics->EnsureWorkers(workers);
  if (config.tracer != nullptr) config.tracer->EnsureWorkers(workers);
}

// An index range [begin, end) of the lookup (or GUID) stream handled by one
// partition of a parallel measurement loop.
struct Partition {
  std::size_t begin;
  std::size_t end;
};

// Upper bound on partitions per loop. High enough that dynamic chunk
// claiming balances uneven source-AS runs across any sane worker count, and
// — critically — FIXED: the split never depends on the thread count, so
// per-partition results merged in partition order are bit-identical for
// every `threads` value (including 1, the serial order of the seed code).
constexpr std::size_t kMaxPartitions = 64;

// Contiguous partitions over `lookups`, snapped to source-AS run boundaries
// (the workload is sorted by source) so no source's SSSP is computed by two
// workers.
std::vector<Partition> PartitionBySource(
    const std::vector<LookupOp>& lookups) {
  std::vector<Partition> parts;
  const std::size_t n = lookups.size();
  if (n == 0) return parts;
  const std::size_t target = (n + kMaxPartitions - 1) / kMaxPartitions;
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = std::min(n, begin + target);
    while (end < n && lookups[end].source == lookups[end - 1].source) ++end;
    parts.push_back({begin, end});
    begin = end;
  }
  return parts;
}

// Plain fixed-size split for streams with no source grouping (Fig 6's GUID
// range).
std::vector<Partition> PartitionRange(std::size_t n) {
  std::vector<Partition> parts;
  if (n == 0) return parts;
  const std::size_t count = std::min(kMaxPartitions, n);
  for (std::size_t p = 0; p < count; ++p) {
    parts.push_back({n * p / count, n * (p + 1) / count});
  }
  return parts;
}

}  // namespace

SampleSet RunResponseTimeExperiment(SimEnvironment& env,
                                    const ResponseTimeConfig& config) {
  DMapService service(env.graph, env.table, config.ServiceOptions());
  WireObservability(service, config);
  service.oracle().SetHubLabels(EnsureHubLabels(env, config.threads));
  WorkloadGenerator workload(env.graph, config.workload);
  LoadMappings(service, workload);

  const std::vector<LookupOp> lookups =
      workload.Lookups(config.workload.num_lookups);
  const std::vector<Partition> parts = PartitionBySource(lookups);

  ThreadPool pool(config.threads);
  service.oracle().SetNumShards(pool.size());
  EnsureObsWorkers(config, pool.size());
  std::vector<SampleSet> partial(parts.size());
  std::vector<std::uint64_t> missed(parts.size(), 0);
  pool.RunChunks(parts.size(), [&](std::size_t p, unsigned worker) {
    partial[p].Reserve(parts[p].end - parts[p].begin);
    for (std::size_t i = parts[p].begin; i < parts[p].end; ++i) {
      const LookupResult r =
          service.Lookup(lookups[i].guid, lookups[i].source, worker);
      if (!r.found) {
        ++missed[p];
        continue;
      }
      partial[p].Add(r.latency_ms);
    }
  });

  SampleSet samples;
  samples.Reserve(lookups.size());
  std::uint64_t total_missed = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    samples.Append(partial[p]);
    total_missed += missed[p];
  }
  if (total_missed > 0) {
    DMAP_LOG(kWarning) << total_missed << " lookups missed registered GUIDs";
  }
  if (config.metrics != nullptr) {
    ContributeOracleMetrics(service.oracle(), *config.metrics);
    ContributeStoreMetrics(service.store(), *config.metrics);
  }
  return samples;
}

std::vector<std::pair<int, SampleSet>> RunResponseTimeSweep(
    SimEnvironment& env, const std::vector<int>& ks,
    const ResponseTimeConfig& config) {
  if (ks.empty()) return {};
  const int k_max = *std::max_element(ks.begin(), ks.end());

  ResponseTimeConfig max_config = config;
  max_config.k = k_max;
  DMapService service(env.graph, env.table, max_config.ServiceOptions());
  WireObservability(service, config);
  service.oracle().SetHubLabels(EnsureHubLabels(env, config.threads));
  WorkloadGenerator workload(env.graph, config.workload);
  LoadMappings(service, workload);

  // The sweep computes lookup latencies in closed form instead of calling
  // service.Lookup (no per-probe walk, so no dmap.lookup_* accounting or
  // traces); it exports one harness-level latency histogram per requested K
  // instead. Algorithm 1 and the insert path are metered normally.
  std::vector<HistogramId> k_histograms;
  if (config.metrics != nullptr) {
    k_histograms.reserve(ks.size());
    for (const int k : ks) {
      k_histograms.push_back(config.metrics->Histogram(
          "sweep.k" + std::to_string(k) + ".lookup_latency_ms",
          MetricsRegistry::LatencyBoundariesMs()));
    }
  }

  // Local-replica hits are decided by the GUID's attachment AS, not by the
  // k_max store contents: a K-replica deployment only has the local copy
  // plus its own first K globals.
  std::unordered_map<Guid, AsId, GuidHash> attachment;
  attachment.reserve(config.workload.num_guids * 2);
  for (std::uint64_t i = 0; i < config.workload.num_guids; ++i) {
    attachment[workload.GuidAt(i)] = workload.AttachmentOf(i);
  }

  std::vector<int> sorted_ks = ks;
  std::sort(sorted_ks.begin(), sorted_ks.end());

  const std::vector<LookupOp> lookups =
      workload.Lookups(config.workload.num_lookups);
  const std::vector<Partition> parts = PartitionBySource(lookups);

  ThreadPool pool(config.threads);
  service.oracle().SetNumShards(pool.size());
  EnsureObsWorkers(config, pool.size());
  // partial[p][j] collects partition p's samples for ks[j]; merged below in
  // (partition, k) order so the output never depends on the worker count.
  std::vector<std::vector<SampleSet>> partial(
      parts.size(), std::vector<SampleSet>(ks.size()));
  pool.RunChunks(parts.size(), [&](std::size_t p, unsigned worker) {
    std::vector<AsId> hosts(std::size_t(k_max), kInvalidAs);
    std::vector<double> rtts(std::size_t(k_max), 0.0);
    for (std::size_t op_index = parts[p].begin; op_index < parts[p].end;
         ++op_index) {
      const LookupOp& op = lookups[op_index];
      // RTTs to all k_max replicas, in hash-function order (NOT sorted: the
      // K-replica system only knows h_1..h_K).
      const std::vector<HostResolution> resolutions =
          service.ReplicaResolutions(op.guid, worker);
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        hosts[i] = resolutions[i].host;
      }
      service.oracle().RttsMs(op.source, hosts.data(), hosts.size(),
                              rtts.data(), worker);
      const bool local_hit =
          config.local_replica && attachment.at(op.guid) == op.source;
      const double local_rtt = 2.0 * env.graph.IntraLatencyMs(op.source);

      double best = std::numeric_limits<double>::infinity();
      std::size_t next_k_index = 0;
      for (int i = 0; i < k_max; ++i) {
        best = std::min(best, rtts[std::size_t(i)]);
        while (next_k_index < sorted_ks.size() &&
               sorted_ks[next_k_index] == i + 1) {
          const double latency = local_hit ? std::min(best, local_rtt) : best;
          for (std::size_t j = 0; j < ks.size(); ++j) {
            if (ks[j] != sorted_ks[next_k_index]) continue;
            partial[p][j].Add(latency);
            if (config.metrics != nullptr) {
              config.metrics->Observe(k_histograms[j], latency, worker);
            }
          }
          ++next_k_index;
        }
      }
    }
  });

  std::vector<std::pair<int, SampleSet>> results;
  results.reserve(ks.size());
  for (const int k : ks) {
    results.emplace_back(k, SampleSet{});
    results.back().second.Reserve(config.workload.num_lookups);
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t j = 0; j < ks.size(); ++j) {
      results[j].second.Append(partial[p][j]);
    }
  }
  if (config.metrics != nullptr) {
    ContributeOracleMetrics(service.oracle(), *config.metrics);
    ContributeStoreMetrics(service.store(), *config.metrics);
  }
  return results;
}

std::vector<std::pair<double, SampleSet>> RunChurnSweep(
    SimEnvironment& env, const std::vector<double>& churn_fractions,
    const ResponseTimeConfig& config) {
  DMapService service(env.graph, env.table, config.ServiceOptions());
  WireObservability(service, config);
  service.oracle().SetHubLabels(EnsureHubLabels(env, config.threads));
  WorkloadGenerator workload(env.graph, config.workload);
  LoadMappings(service, workload);

  // The network's BGP state moves on after the mappings were placed: per
  // fraction, that share of prefixes is withdrawn and half as many newly
  // announced. Queriers resolve replica locations against this *new* table
  // while the mappings still sit where the old table put them — exactly the
  // inconsistency window of Section III-D-1 before the repair protocol has
  // migrated the orphaned mappings. One stale view per fraction; the same
  // placement serves all of them.
  std::vector<PrefixTable> views;
  views.reserve(churn_fractions.size());
  for (const double fraction : churn_fractions) {
    PrefixTable view = env.table;
    if (fraction > 0) {
      Rng rng(kChurnSeed);
      ChurnParams churn;
      // Space-weighted withdrawals: an x% churn level displaces ~x% of
      // first probes, matching the paper's "x% lookup failures" (Figure 5).
      churn.withdraw_space_fraction = fraction;
      churn.announce_fraction = fraction / 2;
      churn.num_ases = env.graph.num_nodes();
      ApplyChurn(view, SampleChurn(env.table, churn, rng));
    }
    views.push_back(std::move(view));
  }

  const std::vector<LookupOp> lookups =
      workload.Lookups(config.workload.num_lookups);
  const std::vector<Partition> parts = PartitionBySource(lookups);

  ThreadPool pool(config.threads);
  service.oracle().SetNumShards(pool.size());
  EnsureObsWorkers(config, pool.size());
  std::vector<std::vector<SampleSet>> partial(
      parts.size(), std::vector<SampleSet>(views.size()));
  pool.RunChunks(parts.size(), [&](std::size_t p, unsigned worker) {
    for (std::size_t i = parts[p].begin; i < parts[p].end; ++i) {
      for (std::size_t v = 0; v < views.size(); ++v) {
        const LookupResult r = service.LookupWithView(
            lookups[i].guid, lookups[i].source, views[v], worker);
        if (r.found) partial[p][v].Add(r.latency_ms);
      }
    }
  });

  std::vector<std::pair<double, SampleSet>> results;
  results.reserve(churn_fractions.size());
  for (const double fraction : churn_fractions) {
    results.emplace_back(fraction, SampleSet{});
    results.back().second.Reserve(config.workload.num_lookups);
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t v = 0; v < views.size(); ++v) {
      results[v].second.Append(partial[p][v]);
    }
  }
  if (config.metrics != nullptr) {
    ContributeOracleMetrics(service.oracle(), *config.metrics);
    ContributeStoreMetrics(service.store(), *config.metrics);
  }
  return results;
}

LoadBalanceResult RunLoadBalanceExperiment(const SimEnvironment& env,
                                           const LoadBalanceConfig& config) {
  // Storage-placement only: resolve every GUID's K replica hosts and count.
  // No MappingStore is materialised, which keeps the 10^7-GUID point cheap.
  const GuidHashFamily hashes(config.k, ProtocolOptions{}.hash_seed);
  HoleResolver resolver(hashes, env.table, config.max_hashes);
  resolver.RefreshSnapshot();
  if (config.metrics != nullptr) resolver.SetMetrics(config.metrics);

  // GUID-range partitioned: replica placement is independent per GUID, and
  // the per-AS tallies are integer sums, so any merge order reproduces the
  // serial counts exactly. Each worker owns a private counter block.
  ThreadPool pool(config.threads);
  if (config.metrics != nullptr) config.metrics->EnsureWorkers(pool.size());
  const std::vector<Partition> parts = PartitionRange(config.num_guids);
  struct WorkerTally {
    std::vector<std::uint64_t> counts;
    std::uint64_t hash_evals = 0;
    std::uint64_t deputy_fallbacks = 0;
  };
  std::vector<WorkerTally> tallies(pool.size());
  for (WorkerTally& tally : tallies) {
    tally.counts.assign(env.graph.num_nodes(), 0);
  }
  // Each partition resolves its GUIDs in blocks of kBlock through
  // ResolveBatch, so the per-worker buffers stay small at 10^7 GUIDs.
  constexpr std::size_t kBlock = 1024;
  pool.RunChunks(parts.size(), [&](std::size_t p, unsigned worker) {
    WorkerTally& tally = tallies[worker];
    std::vector<Guid> guids;
    guids.reserve(kBlock);
    std::vector<HostResolution> resolved(kBlock * std::size_t(config.k));
    for (std::size_t begin = parts[p].begin; begin < parts[p].end;
         begin += kBlock) {
      const std::size_t end = std::min(parts[p].end, begin + kBlock);
      guids.clear();
      for (std::uint64_t i = begin; i < end; ++i) {
        guids.push_back(Guid::FromSequence(
            i ^ (kLoadBalanceGuidSeed * 0x9e3779b97f4a7c15ULL)));
      }
      resolver.ResolveBatch(guids, resolved.data(), worker);
      for (std::size_t f = 0; f < guids.size() * std::size_t(config.k);
           ++f) {
        const HostResolution& r = resolved[f];
        ++tally.counts[r.host];
        tally.hash_evals += std::uint64_t(r.hash_count);
        if (r.used_nearest) ++tally.deputy_fallbacks;
      }
    }
  });

  LoadBalanceResult result;
  std::vector<std::uint64_t> counts(env.graph.num_nodes(), 0);
  for (const WorkerTally& tally : tallies) {
    for (std::size_t as = 0; as < counts.size(); ++as) {
      counts[as] += tally.counts[as];
    }
    result.total_hash_evals += tally.hash_evals;
    result.deputy_fallbacks += tally.deputy_fallbacks;
  }
  result.nlr = ComputeNlr(counts, env.table);
  return result;
}

std::vector<BaselineComparisonRow> RunBaselineComparison(
    SimEnvironment& env, const ResponseTimeConfig& config,
    std::uint64_t num_moves) {
  PathOracle shared_oracle(env.graph);
  shared_oracle.SetHubLabels(EnsureHubLabels(env, config.threads));

  std::vector<std::unique_ptr<NameResolver>> schemes;
  DMapResolver* dmap_scheme = nullptr;
  {
    DMapOptions options = config.ServiceOptions();
    options.measure_update_latency = true;
    auto dmap = std::make_unique<DMapResolver>(env.graph, env.table, options);
    dmap_scheme = dmap.get();
    dmap->service().oracle().SetHubLabels(
        EnsureHubLabels(env, config.threads));
    schemes.push_back(std::move(dmap));
  }
  schemes.push_back(std::make_unique<ChordDht>(env.graph, shared_oracle));
  schemes.push_back(std::make_unique<HomeAgent>(shared_oracle));
  // The central directory sits at AS 0 — a tier-1 core AS by construction.
  schemes.push_back(std::make_unique<CentralDirectory>(shared_oracle, 0));

  // Serial loop: every scheme accounts under worker slab 0. Each scheme
  // registers its own "<name>.*" instrument set (DMap its "dmap.*" one).
  for (const auto& scheme : schemes) {
    if (config.metrics != nullptr) scheme->EnableMetrics(config.metrics);
    if (config.tracer != nullptr) scheme->EnableTracing(config.tracer);
  }

  std::vector<BaselineComparisonRow> rows;
  for (const auto& scheme : schemes) {
    // Identical workload per scheme (same seeds).
    WorkloadGenerator workload(env.graph, config.workload);
    for (const InsertOp& op : workload.Inserts()) {
      (void)scheme->Insert(op.guid, op.na);  // load phase, not measured
    }

    SampleSet lookup_times;
    for (const LookupOp& op :
         workload.Lookups(config.workload.num_lookups)) {
      const LookupResult r = scheme->Lookup(op.guid, op.source);
      if (r.found) lookup_times.Add(r.latency_ms);
    }

    SampleSet update_times;
    for (const MoveOp& op : workload.Moves(num_moves)) {
      update_times.Add(scheme->Update(op.guid, op.new_na).latency_ms);
    }

    rows.push_back(BaselineComparisonRow{
        scheme->name(), Summarize(lookup_times), Summarize(update_times)});
  }
  if (config.metrics != nullptr) {
    ContributeOracleMetrics(shared_oracle, *config.metrics);
    ContributeOracleMetrics(dmap_scheme->service().oracle(), *config.metrics);
    ContributeStoreMetrics(dmap_scheme->service().store(), *config.metrics);
  }
  return rows;
}

}  // namespace dmap
