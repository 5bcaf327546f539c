// The four dmapbench workloads. Each one owns its environment, generates
// its operations from the seed in Setup (untimed by the measured phase),
// and runs them through one executor's public API in Run: the closed-form
// DMapService (closed-read-zipf, mobility-cache), the wire ProtocolNetwork
// (wire-mixed) and EventDrivenLookup behind a ServingTier
// (event-overload). Every parameter is pinned here, so no edit to a shared
// bench flag or config file can move the benchmark.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "dmapbench.h"
#include "common/rng.h"
#include "common/sampler.h"
#include "common/zipf.h"
#include "obs/metrics_registry.h"
#include "proto/network.h"
#include "runtime/thread_pool.h"
#include "serve/serving_tier.h"
#include "sim/environment.h"
#include "sim/event_driven.h"
#include "sim/offered_load.h"
#include "workload/arrivals.h"
#include "workload/mobility.h"
#include "workload/workload.h"

namespace dmapbench {
namespace {

using namespace dmap;

// ---- Pinned parameters ----------------------------------------------------

constexpr std::uint32_t kPaperAses = 26424;
constexpr std::uint32_t kQuarterAses = 6606;  // scale 0.25
constexpr std::uint32_t kSmokeAses = 1000;
constexpr std::uint64_t kEnvironmentSeed = 42;  // the topology is fixed
constexpr double kAlpha = 1.02;  // Mandelbrot-Zipf popularity (Sec. IV-B)
constexpr double kQ = 100.0;
constexpr unsigned kStoreShards = 4;

// closed-read-zipf: a 2M-lookup arrival-ordered stream, replayed whole
// `passes` times; passes scale with --seconds.
constexpr std::uint64_t kClosedGuids = 200'000;
constexpr std::size_t kClosedStream = 2'000'000;
constexpr double kClosedLookupsPerSecond = 1.2e6;
constexpr std::uint32_t kClosedWindow = 1024;

// mobility-cache: 100 ms epochs of 1 Hz handoffs, ~10 lookups per move.
constexpr std::uint32_t kMobilityHosts = 10'000;
constexpr std::uint32_t kGuidsPerHost = 8;
constexpr double kEpochMs = 100.0;
constexpr int kEpochsPerSecond = 3;
constexpr std::uint32_t kLookupsPerMove = 10;
constexpr std::uint32_t kLookupWindow = 1024;
constexpr std::uint32_t kHandoffWindow = 16;

// wire-mixed: open-loop arrivals, 10% re-registrations.
constexpr std::uint64_t kWireGuids = 50'000;
constexpr double kWireRatePerS = 1000.0;  // simulated arrivals/second
constexpr double kWireOpsPerSecond = 1000.0;
constexpr double kWireInsertFraction = 0.1;
constexpr std::uint32_t kWireWindow = 8;
// A lookup is checked against the latest NA only when its GUID saw no
// re-registration for this long (simulated): far beyond any fault-free
// write round trip, so every replica holds the latest write.
constexpr double kQuietMs = 2000.0;

// event-overload: fig8's serving tier at 1.2x its analytic saturation.
constexpr std::uint64_t kOverloadGuids = 20'000;
constexpr double kOverloadOpsPerSecond = 220'000.0;
constexpr double kOverloadFactor = 1.2;
constexpr std::uint64_t kCalibrationArrivals = 20'000;
constexpr std::uint32_t kOverloadWindow = 1024;

ServingConfig PinnedServing() {
  // configs/fig8.serving: one exponential M/M/1 server per AS, 2 ms mean
  // service, 64 waiting slots, token bucket configured but unlimited.
  ServingConfig config;
  config.enabled = true;
  config.model = ServiceModel::kExponential;
  config.service_rate_per_s = 500.0;
  config.concurrency = 1;
  config.queue_depth = 64;
  config.admission = AdmissionPolicy::kTokenBucket;
  config.bucket_rate_per_s = 0.0;
  config.bucket_burst = 32.0;
  config.seed = 1;
  return config;
}

DMapOptions PinnedOptions() {
  DMapOptions options;  // K=5, M=10, local replica on, W = majority
  options.store_shards = int(kStoreShards);
  options.measure_update_latency = false;
  return options;
}

std::unique_ptr<SimEnvironment> BuildEnv(std::uint32_t ases,
                                         unsigned threads) {
  auto env = std::make_unique<SimEnvironment>(BuildEnvironment(
      ases == kPaperAses ? EnvironmentParams::FullScale(kEnvironmentSeed)
                         : EnvironmentParams::Scaled(ases, kEnvironmentSeed)));
  EnsureHubLabels(*env, threads);
  return env;
}

std::uint8_t OkFlag(bool ok) { return ok ? kFound : kWrong; }

// The paper's lookup workload over `num_guids` GUIDs (Section IV-B).
WorkloadParams ZipfWorkload(std::uint64_t num_guids, std::uint64_t seed) {
  WorkloadParams params;
  params.num_guids = num_guids;
  params.popularity_alpha = kAlpha;
  params.popularity_q = kQ;
  params.seed = seed;
  return params;
}

std::unordered_map<Guid, NetworkAddress, GuidHash> Attachments(
    const std::vector<InsertOp>& inserts) {
  std::unordered_map<Guid, NetworkAddress, GuidHash> attachment;
  attachment.reserve(inserts.size());
  for (const InsertOp& op : inserts) attachment.emplace(op.guid, op.na);
  return attachment;
}

// Distinct stream per (seed, purpose).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose) {
  return SplitMix64(seed ^ (purpose * 0x9e3779b97f4a7c15ULL)).Next();
}

std::uint64_t CounterValue(const MetricsSnapshot& snapshot,
                           const std::string& name) {
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t HistogramCount(const MetricsSnapshot& snapshot,
                             const std::string& name) {
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

std::uint64_t VectorCalls(const PathOracle& oracle) {
  return oracle.dijkstra_runs() + oracle.latency_cache_hits();
}

bool SameNa(const LookupResult& r, const NetworkAddress& na) {
  return r.found && !r.nas.empty() && r.nas[0] == na;
}

// Collects the first correctness violation and counts them all.
void Violation(PassResult& pass, const std::string& what) {
  if (pass.violations++ == 0) pass.first_violation = what;
}

void CountFlagged(PassResult& pass, const char* what) {
  for (std::size_t i = 0; i < pass.ops.size(); ++i) {
    if (pass.ops[i].flags & kWrong) {
      Violation(pass, std::string(what) + " (op " + std::to_string(i) + ")");
    }
  }
}

// 1,000 quiescent lookups through the closed form and the event-driven
// executor on the same service must agree (found, NA, latency to 1e-9 ms).
void CrossCheckExecutors(DMapService& service, const std::vector<Guid>& guids,
                         const std::vector<AsId>& sources,
                         std::vector<std::string>& failures) {
  constexpr std::size_t kChecks = 1000;
  Simulator sim;
  EventDrivenLookup exec(sim, service);
  std::size_t mismatches = 0;
  const std::size_t step = std::max<std::size_t>(1, guids.size() / kChecks);
  for (std::size_t c = 0; c < kChecks && c * step < guids.size(); ++c) {
    const std::size_t i = c * step;
    const LookupResult closed = service.Lookup(guids[i], sources[i], 0);
    exec.LookupAsync(guids[i], sources[i], SimTime::Zero(),
                     [&mismatches, closed](const LookupResult& event) {
                       const bool same_na =
                           closed.found == event.found &&
                           (!closed.found || closed.nas == event.nas);
                       if (!same_na || std::abs(closed.latency_ms -
                                                event.latency_ms) > 1e-9) {
                         ++mismatches;
                       }
                     });
  }
  sim.Run();
  if (mismatches > 0) {
    failures.push_back(std::to_string(mismatches) +
                       " lookups disagree between DMapService and "
                       "EventDrivenLookup");
  }
}

// ---- closed-read-zipf -----------------------------------------------------

class ClosedReadZipf final : public Workload {
 public:
  explicit ClosedReadZipf(const RunConfig& config) : config_(config) {}

  void Setup() override {
    env_ = BuildEnv(config_.smoke ? kSmokeAses : kPaperAses, config_.threads);
    WorkloadGenerator generator(
        env_->graph,
        ZipfWorkload(config_.smoke ? 5'000 : kClosedGuids, config_.seed));
    const std::vector<InsertOp> inserts = generator.Inserts(false);
    const auto attachment = Attachments(inserts);
    // Arrival order, not sorted by source: every lookup pays its own
    // oracle and store accesses.
    const std::vector<LookupOp> lookups = generator.Lookups(
        config_.smoke ? 20'000 : kClosedStream, /*sort_by_source=*/false);
    for (const LookupOp& op : lookups) {
      guids_.push_back(op.guid);
      sources_.push_back(op.source);
      expected_.push_back(attachment.at(op.guid));
    }

    service_ = std::make_unique<DMapService>(env_->graph, env_->table,
                                             PinnedOptions());
    service_->oracle().SetHubLabels(env_->hub_labels.get());
    for (const InsertOp& op : inserts) (void)service_->Insert(op.guid, op.na);
    service_->RefreshReadSnapshots();
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    service_->oracle().SetNumShards(pool_->size());
  }

  PassResult Run(Tracer* tracer) override {
    const std::size_t n = guids_.size();
    const std::size_t passes =
        config_.smoke ? 2
                      : std::size_t(std::ceil(kClosedLookupsPerSecond *
                                              config_.seconds / double(n)));
    const std::uint32_t window = config_.smoke ? 64 : kClosedWindow;
    const std::size_t per_pass = (n + window - 1) / window;

    PassResult pass;
    pass.workers = pool_->size();
    pass.ops.resize(n);
    pass.windows.resize(passes * per_pass);
    std::vector<std::uint64_t> replay_mismatches(pool_->size(), 0);
    MetricsRegistry registry(pool_->size());
    if (tracer != nullptr) service_->SetMetrics(&registry);
    const std::uint64_t labels_before = service_->oracle().label_queries();

    const std::int64_t start = NowNs();
    for (std::size_t p = 0; p < passes; ++p) {
      pool_->RunChunks(per_pass, [&](std::size_t w, unsigned worker) {
        const std::size_t begin = w * window;
        const std::size_t end = std::min(n, begin + window);
        const std::uint64_t first_op = p * n + begin;
        const std::uint64_t span = tracer ? tracer->NextId(worker) : 0;
        const std::int64_t t0 = NowNs();
        for (std::size_t i = begin; i < end; ++i) {
          LookupResult r;
          if (tracer != nullptr) {
            const std::int64_t s = NowNs();
            r = service_->Lookup(guids_[i], sources_[i], worker);
            const std::uint64_t op = p * n + i;
            tracer->Record(worker, Span{0, span, op, s, NowNs(), kSpanLookup},
                           1, tracer->Sampled(op));
          } else {
            r = service_->Lookup(guids_[i], sources_[i], worker);
          }
          OpOutcome& o = pass.ops[i];
          if (p == 0) {
            o.vms = r.latency_ms;
            o.attempts = std::uint16_t(r.attempts);
            o.kind = kLookup;
            o.flags = r.found ? std::uint8_t{kFound} : std::uint8_t{0};
            // No writes run during the phase: every lookup must return
            // the NA the GUID was registered with.
            if (!SameNa(r, expected_[i])) o.flags |= kWrong;
          } else if (r.latency_ms != o.vms ||
                     r.found != bool(o.flags & kFound)) {
            ++replay_mismatches[worker];  // the read path must be pure
          }
        }
        const std::int64_t t1 = NowNs();
        pass.windows[p * per_pass + w] =
            Window{t1 - t0, std::uint32_t(end - begin), worker};
        if (tracer != nullptr) {
          tracer->Record(worker, Span{span, 0, first_op, t0, t1, kSpanWindow},
                         end - begin, true);
        }
      });
    }
    pass.wall_s = double(NowNs() - start) * 1e-9;
    pass.lookups = passes * n;

    std::uint64_t attempts = 0;
    for (const OpOutcome& o : pass.ops) attempts += o.attempts;
    pass.messages = 2 * attempts;  // a request and a reply per probe
    CountFlagged(pass, "lookup returned a wrong or missing NA");
    std::uint64_t mismatches = 0;
    for (const std::uint64_t m : replay_mismatches) mismatches += m;
    if (mismatches > 0) {
      Violation(pass, std::to_string(mismatches) +
                          " repeated lookups answered differently");
    }

    if (tracer != nullptr) {
      service_->SetMetrics(nullptr);
      const MetricsSnapshot snap = registry.Snapshot();
      LayerCounts& c = pass.counts;
      c.resolves = c.lookup_resolves =
          HistogramCount(snap, "algo1.rehash_depth");
      c.hash_evals = c.lookup_hash_evals =
          CounterValue(snap, "algo1.hash_evaluations");
      c.point_queries = c.lookup_point_queries =
          service_->oracle().label_queries() - labels_before;
      c.store_reads = passes * (attempts + n);  // probes + the local read
    }
    return pass;
  }

  void Verify(std::vector<std::string>& failures) override {
    CrossCheckExecutors(*service_, guids_, sources_, failures);
  }

  LayerSample Sample(std::size_t max_lookups) override {
    LayerSample sample;
    const std::size_t n = std::min(max_lookups, guids_.size());
    for (std::size_t i = 0; i < n; ++i) {
      sample.guids.push_back(guids_[i]);
      sample.queriers.push_back(sources_[i]);
      sample.answers.push_back(expected_[i]);
      sample.times_ms.push_back(double(i) * 0.02);  // closed loop: no clock
    }
    return sample;
  }
  DMapService& ReplayService() override { return *service_; }
  const MappingEntry* LiveStoreRead(AsId as, const Guid& guid) override {
    return service_->StoreLookup(as, guid);
  }

 private:
  RunConfig config_;
  std::unique_ptr<SimEnvironment> env_;
  std::vector<Guid> guids_;
  std::vector<AsId> sources_;
  std::vector<NetworkAddress> expected_;
  std::unique_ptr<DMapService> service_;
  std::unique_ptr<ThreadPool> pool_;
};

// ---- mobility-cache -------------------------------------------------------

class MobilityCache final : public Workload {
 public:
  explicit MobilityCache(const RunConfig& config) : config_(config) {}

  void Setup() override {
    env_ = BuildEnv(config_.smoke ? kSmokeAses : kPaperAses, config_.threads);
    const int epochs = config_.smoke ? 3 : kEpochsPerSecond * config_.seconds;
    MobilityParams params;
    params.num_hosts = config_.smoke ? 300 : kMobilityHosts;
    params.guids_per_host = kGuidsPerHost;
    params.handoff_rate_hz = 1.0;
    params.horizon_s = epochs * kEpochMs / 1000.0;
    params.seed = config_.seed;
    const MobilityWorkload mobility(env_->graph, params);
    const std::uint32_t num_guids = params.num_hosts * kGuidsPerHost;

    // Handoffs partitioned into epochs; each handoff's batch generated now.
    const std::vector<Handoff>& handoffs = mobility.Handoffs();
    for (const Handoff& h : handoffs) {
      moves_.push_back(mobility.MovesFor(h));
      move_hosts_.push_back(h.host);
    }
    epoch_handoffs_.assign(std::size_t(epochs) + 1, 0);
    for (int e = 0, h = 0; e < epochs; ++e) {
      while (std::size_t(h) < handoffs.size() &&
             handoffs[std::size_t(h)].at.millis() < (e + 1) * kEpochMs) {
        ++h;
      }
      epoch_handoffs_[std::size_t(e) + 1] = std::size_t(h);
    }

    // Zipf lookups over the GUID population, about 10 per GUID move of
    // the epoch; sources weighted by end-node count.
    Rng rng(SubSeed(config_.seed, 1));
    const MandelbrotZipf popularity(num_guids, kAlpha, kQ);
    std::vector<std::uint32_t> rank_to_guid(num_guids);
    for (std::uint32_t i = 0; i < num_guids; ++i) rank_to_guid[i] = i;
    for (std::size_t i = num_guids; i > 1; --i) {
      std::swap(rank_to_guid[i - 1],
                rank_to_guid[std::size_t(rng.NextBounded(i))]);
    }
    const AliasSampler sources(env_->graph.end_node_weights());
    epoch_lookups_.assign(std::size_t(epochs) + 1, 0);
    for (int e = 0; e < epochs; ++e) {
      const std::size_t moves = (epoch_handoffs_[std::size_t(e) + 1] -
                                 epoch_handoffs_[std::size_t(e)]) *
                                kGuidsPerHost;
      for (std::size_t j = 0; j < moves * kLookupsPerMove; ++j) {
        lookup_guid_.push_back(
            rank_to_guid[std::size_t(popularity.Sample(rng) - 1)]);
        lookup_source_.push_back(AsId(sources.Sample(rng)));
      }
      epoch_lookups_[std::size_t(e) + 1] = lookup_guid_.size();
    }

    DMapOptions options = PinnedOptions();
    options.measure_update_latency = true;  // update_vms_p50
    options.cache.capacity = std::size_t{1} << 17;
    options.cache.ttl_ms = 500.0;
    options.cache.invalidate_on_update = false;
    service_ = std::make_unique<DMapService>(env_->graph, env_->table, options);
    service_->oracle().SetHubLabels(env_->hub_labels.get());
    committed_.assign(num_guids, NetworkAddress{});
    guids_.assign(num_guids, Guid{});
    std::size_t index = 0;
    for (const InsertOp& op : mobility.InitialInserts()) {
      (void)service_->Insert(op.guid, op.na);
      guids_[index] = op.guid;
      committed_[index++] = op.na;
    }
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    service_->oracle().SetNumShards(pool_->size());
    service_->cache()->EnsureWorkers(pool_->size());
    service_->AdvanceCacheTime(SimTime::Zero());
    service_->RefreshReadSnapshots();
  }

  PassResult Run(Tracer* tracer) override {
    const std::size_t epochs = epoch_handoffs_.size() - 1;
    const std::uint32_t lookup_window = config_.smoke ? 64 : kLookupWindow;
    const std::uint32_t handoff_window = config_.smoke ? 4 : kHandoffWindow;
    const int k = service_->options().k;

    PassResult pass;
    pass.workers = pool_->size();
    pass.ops.resize(moves_.size() * kGuidsPerHost + lookup_guid_.size());
    MetricsRegistry registry(pool_->size());
    if (tracer != nullptr) service_->SetMetrics(&registry);
    ResolverCache& cache = *service_->cache();
    const std::uint64_t stale_before = cache.stale_served();
    const std::uint64_t hits_before = cache.hits();
    const std::uint64_t probes_before = cache.hits() + cache.misses();
    const std::uint64_t labels_before = service_->oracle().label_queries();
    std::uint64_t lookup_labels = 0;
    std::vector<std::uint64_t> lookup_reads(pool_->size(), 0);

    std::size_t op = 0;  // next op slot: each epoch's moves, then lookups
    const std::int64_t start = NowNs();
    for (std::size_t e = 0; e < epochs; ++e) {
      // Serial write point: the epoch's handoffs as batched updates.
      const std::size_t h_end = epoch_handoffs_[e + 1];
      std::size_t h = epoch_handoffs_[e];
      do {  // an epoch without handoffs still has its serial point
        const std::size_t end = std::min(h_end, h + handoff_window);
        const std::uint64_t span = tracer ? tracer->NextId(0) : 0;
        const std::int64_t t0 = NowNs();
        std::uint32_t window_ops = 0;
        for (std::size_t b = h; b < end; ++b) {
          const std::int64_t s = tracer ? NowNs() : 0;
          const BatchUpdateResult r = service_->BatchUpdate(moves_[b]);
          if (tracer != nullptr) {
            tracer->Record(0, Span{0, span, op, s, NowNs(), kSpanBatchUpdate},
                           moves_[b].size(), tracer->Sampled(b));
          }
          pass.messages += 2 * r.messages;  // request + response per AS
          for (std::size_t j = 0; j < moves_[b].size(); ++j) {
            OpOutcome& o = pass.ops[op++];
            o.kind = kUpdate;
            o.vms = r.per_guid[j].latency_ms;
            o.flags = OkFlag(r.per_guid[j].status == ResolverStatus::kOk);
            committed_[move_hosts_[b] * kGuidsPerHost + j] =
                moves_[b][j].second;
          }
          window_ops += std::uint32_t(moves_[b].size());
        }
        pass.updates += window_ops;
        if (end == h_end) SerialPoint(e, tracer, span);
        const std::int64_t t1 = NowNs();
        pass.windows.push_back(Window{t1 - t0, window_ops, 0});
        if (tracer != nullptr) {
          tracer->Record(0, Span{span, 0, op, t0, t1, kSpanWindow},
                         window_ops, true);
        }
        h = end;
      } while (h < h_end);

      // Parallel lookup phase against the published snapshots.
      const std::size_t l_begin = epoch_lookups_[e];
      const std::size_t l_count = epoch_lookups_[e + 1] - l_begin;
      const std::size_t windows = (l_count + lookup_window - 1) / lookup_window;
      const std::size_t first_window = pass.windows.size();
      pass.windows.resize(first_window + windows);
      const std::size_t op_base = op;
      const std::uint64_t labels_phase = service_->oracle().label_queries();
      pool_->RunChunks(windows, [&](std::size_t w, unsigned worker) {
        const std::size_t begin = w * lookup_window;
        const std::size_t end = std::min(l_count, begin + lookup_window);
        const std::uint64_t span = tracer ? tracer->NextId(worker) : 0;
        const std::int64_t t0 = NowNs();
        std::uint64_t reads = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t g = lookup_guid_[l_begin + i];
          LookupResult r;
          if (tracer != nullptr) {
            const std::int64_t s = NowNs();
            r = service_->Lookup(guids_[g], lookup_source_[l_begin + i],
                                 worker);
            tracer->Record(worker,
                           Span{0, span, op_base + i, s, NowNs(), kSpanLookup},
                           1, tracer->Sampled(op_base + i));
          } else {
            r = service_->Lookup(guids_[g], lookup_source_[l_begin + i],
                                 worker);
          }
          OpOutcome& o = pass.ops[op_base + i];
          o.kind = kLookup;
          o.vms = r.latency_ms;
          o.attempts = std::uint16_t(r.attempts);
          o.flags = r.found ? std::uint8_t{kFound} : std::uint8_t{0};
          if (r.served_from_cache) {
            // TTL coherence may serve a superseded NA; that is measured.
            if (r.found && !SameNa(r, committed_[g])) o.flags |= kStale;
          } else {
            reads += std::uint64_t(r.attempts) + 1;
          }
          // Uncached lookups see the state of the last serial point.
          if (!r.found || (!r.served_from_cache && !SameNa(r, committed_[g]))) {
            o.flags |= kWrong;
          }
        }
        lookup_reads[worker] += reads;
        const std::int64_t t1 = NowNs();
        pass.windows[first_window + w] =
            Window{t1 - t0, std::uint32_t(end - begin), worker};
        if (tracer != nullptr) {
          tracer->Record(worker,
                         Span{span, 0, op_base + begin, t0, t1, kSpanWindow},
                         end - begin, true);
        }
      });
      lookup_labels += service_->oracle().label_queries() - labels_phase;
      op += l_count;
      pass.lookups += l_count;
    }
    pass.wall_s = double(NowNs() - start) * 1e-9;

    std::uint64_t stale = 0;
    for (const OpOutcome& o : pass.ops) {
      if (o.kind == kLookup) pass.messages += 2 * std::uint64_t(o.attempts);
      if (o.flags & kStale) ++stale;
    }
    CountFlagged(pass, "wrong NA, failed update or missing lookup");
    if (stale != cache.stale_served() - stale_before) {
      Violation(pass, "stale reads seen by the harness (" +
                          std::to_string(stale) +
                          ") differ from the cache's stale_served count");
    }

    if (tracer != nullptr) {
      service_->SetMetrics(nullptr);
      const MetricsSnapshot snap = registry.Snapshot();
      LayerCounts& c = pass.counts;
      c.resolves = HistogramCount(snap, "algo1.rehash_depth");
      c.hash_evals = CounterValue(snap, "algo1.hash_evaluations");
      // Writes resolve K replicas per GUID and count their own hashes.
      c.lookup_resolves = c.resolves - std::uint64_t(k) * pass.updates;
      c.lookup_hash_evals =
          c.hash_evals - CounterValue(snap, "dmap.hash_evaluations");
      c.point_queries = service_->oracle().label_queries() - labels_before;
      c.lookup_point_queries = lookup_labels;
      for (std::size_t w = 0; w < pool_->size(); ++w) {
        c.store_reads += lookup_reads[w];
      }
      c.store_upserts = std::uint64_t(k + 1) * pass.updates;
      c.cache_hits = cache.hits() - hits_before;
      c.cache_probes = cache.hits() + cache.misses() - probes_before;
      c.refreshes = epochs;
    }
    return pass;
  }

  LayerSample Sample(std::size_t max_lookups) override {
    LayerSample sample;
    const std::size_t n = std::min(max_lookups, lookup_guid_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t g = lookup_guid_[i];
      sample.guids.push_back(guids_[g]);
      sample.queriers.push_back(lookup_source_[i]);
      sample.answers.push_back(committed_[g]);
      sample.times_ms.push_back(double(i) * 0.02);
    }
    return sample;
  }
  DMapService& ReplayService() override { return *service_; }
  const MappingEntry* LiveStoreRead(AsId as, const Guid& guid) override {
    return service_->StoreLookup(as, guid);
  }

 private:
  // The epoch's serial point: advance the cache clock and publish every
  // read snapshot. Traced, RefreshReadSnapshots is split into its parts by
  // running them first; the final call then only refreshes the store.
  void SerialPoint(std::size_t epoch, Tracer* tracer, std::uint64_t parent) {
    service_->AdvanceCacheTime(SimTime::Millis(double(epoch + 1) * kEpochMs));
    if (tracer == nullptr) {
      service_->RefreshReadSnapshots();
      return;
    }
    const std::uint64_t id = tracer->NextId(0);
    const std::int64_t t0 = NowNs();
    service_->RefreshResolverSnapshot();
    const std::int64_t t1 = NowNs();
    service_->cache()->ApplyFills();
    const std::int64_t t2 = NowNs();
    service_->cache()->RefreshSnapshots();
    const std::int64_t t3 = NowNs();
    service_->RefreshReadSnapshots();
    const std::int64_t t4 = NowNs();
    tracer->Record(0, Span{id, parent, 0, t0, t4, kSpanRefreshReadSnapshots},
                   1, true);
    tracer->Record(0, Span{0, id, 0, t0, t1, kSpanRefreshResolverSnapshot}, 1,
                   true);
    tracer->Record(0, Span{0, id, 0, t1, t2, kSpanCacheApplyFills}, 1, true);
    tracer->Record(0, Span{0, id, 0, t2, t3, kSpanCacheRefreshSnapshots}, 1,
                   true);
    tracer->Record(0, Span{0, id, 0, t3, t4, kSpanStoreRefresh}, 1, true);
  }

  RunConfig config_;
  std::unique_ptr<SimEnvironment> env_;
  std::vector<std::vector<std::pair<Guid, NetworkAddress>>> moves_;
  std::vector<std::uint32_t> move_hosts_;
  std::vector<std::size_t> epoch_handoffs_;  // handoff index per epoch start
  std::vector<std::uint32_t> lookup_guid_;   // GUID index per lookup
  std::vector<AsId> lookup_source_;
  std::vector<std::size_t> epoch_lookups_;   // lookup index per epoch start
  std::vector<Guid> guids_;                  // by GUID index
  std::vector<NetworkAddress> committed_;    // the harness's last write
  std::unique_ptr<DMapService> service_;
  std::unique_ptr<ThreadPool> pool_;
};

// ---- wire-mixed -----------------------------------------------------------

class WireMixed final : public Workload {
 public:
  explicit WireMixed(const RunConfig& config) : config_(config) {}

  void Setup() override {
    env_ = BuildEnv(config_.smoke ? kSmokeAses : kQuarterAses,
                    config_.threads);
    generator_ = std::make_unique<WorkloadGenerator>(
        env_->graph,
        ZipfWorkload(config_.smoke ? 2'000 : kWireGuids, config_.seed));
    const std::vector<InsertOp> inserts = generator_->Inserts(false);
    std::unordered_map<Guid, std::uint32_t, GuidHash> index;
    index.reserve(inserts.size());
    for (const InsertOp& op : inserts) {
      index.emplace(op.guid, std::uint32_t(guids_.size()));
      guids_.push_back(op.guid);
      current_.push_back(op.na);
    }
    committed_seq_.assign(guids_.size(), 0);
    issued_seq_.assign(guids_.size(), 0);
    last_issue_ms_.assign(guids_.size(), -1e300);

    net_ = std::make_unique<ProtocolNetwork>(env_->graph, env_->table,
                                             ProtocolNetworkOptions{});
    net_->oracle().SetHubLabels(env_->hub_labels.get());
    std::uint64_t failed_loads = 0;
    for (const InsertOp& op : inserts) {
      net_->InsertAsync(op.guid, op.na, [&failed_loads](const UpdateResult& r) {
        if (r.status != ResolverStatus::kOk) ++failed_loads;
      });
    }
    net_->simulator().Run();
    if (failed_loads > 0) {
      throw std::runtime_error("wire-mixed: bulk load lost quorum");
    }

    // Open-loop arrivals in simulated time; a tenth re-register their GUID
    // at a fresh locator in its current AS (InsertAsync does not retire a
    // local copy left at a previous AS).
    ArrivalParams arrivals;
    arrivals.base_rate_per_s = kWireRatePerS;
    const double ops = config_.smoke ? 2'000.0
                                     : kWireOpsPerSecond * config_.seconds;
    arrivals.horizon_s = ops / kWireRatePerS;
    arrivals.seed = SubSeed(config_.seed, 2);
    const std::vector<ArrivalOp> stream =
        OpenLoopArrivals(env_->graph, *generator_, arrivals).Generate();
    Rng rng(SubSeed(config_.seed, 3));
    const double origin_ms = net_->simulator().Now().millis();
    for (const ArrivalOp& a : stream) {
      ops_.push_back(WireOp{origin_ms + a.time_ms, index.at(a.guid), a.source,
                            rng.NextBernoulli(kWireInsertFraction)});
    }
  }

  PassResult Run(Tracer* tracer) override {
    Simulator& sim = net_->simulator();
    PassResult pass;
    pass.ops.resize(ops_.size());
    MetricsRegistry registry(1);
    if (tracer != nullptr) net_->SetMetrics(&registry);
    const PathOracle& oracle = net_->oracle();
    const std::uint64_t msgs_before = net_->messages_sent();
    const std::uint64_t bytes_before = net_->bytes_sent();
    const std::uint64_t stale_before = net_->stale_reads();
    const std::uint64_t events_before = sim.executed_events();
    const std::uint64_t labels_before = oracle.label_queries();
    const std::uint64_t vectors_before = VectorCalls(oracle);
    const std::uint64_t vector_hits_before = oracle.latency_cache_hits();
    const std::uint64_t node_reads_before = NodeReads();
    double depth_sum = 0.0;

    const std::int64_t start = NowNs();
    for (std::size_t begin = 0; begin < ops_.size(); begin += kWireWindow) {
      const std::size_t end = std::min(ops_.size(), begin + kWireWindow);
      const std::int64_t t0 = NowNs();
      for (std::size_t i = begin; i < end; ++i) {
        sim.ScheduleAt(SimTime::Millis(ops_[i].at_ms),
                       [this, &pass, i] { Issue(pass, i); });
      }
      if (end < ops_.size()) {
        sim.RunUntil(SimTime::Millis(ops_[end].at_ms));
      } else {
        sim.Run();
      }
      const std::int64_t t1 = NowNs();
      pass.windows.push_back(Window{t1 - t0, std::uint32_t(end - begin), 0});
      depth_sum += double(sim.PendingEvents());
      if (tracer != nullptr) {
        tracer->Record(0, Span{0, 0, begin, t0, t1, kSpanSimWindow},
                       end - begin, true);
      }
    }
    pass.wall_s = double(NowNs() - start) * 1e-9;
    pass.messages = net_->messages_sent() - msgs_before;
    pass.bytes = net_->bytes_sent() - bytes_before;

    std::uint64_t stale = 0;
    for (const OpOutcome& o : pass.ops) {
      if (o.kind == kLookup) ++pass.lookups; else ++pass.updates;
      if (o.flags & kStale) ++stale;
    }
    CountFlagged(pass, "wire operation failed or returned a wrong NA");
    if (stale != net_->stale_reads() - stale_before) {
      Violation(pass, "stale reads seen by the harness (" +
                          std::to_string(stale) +
                          ") differ from the network's stale_reads count");
    }

    if (tracer != nullptr) {
      net_->SetMetrics(nullptr);
      LayerCounts& c = pass.counts;
      const int k = net_->options().k;
      // Every wire lookup and write resolves all K replicas; the hash
      // evaluations are recounted on an identical resolver.
      c.resolves = std::uint64_t(k) * (pass.lookups + pass.updates);
      const HoleResolver& resolver = ReplayService().resolver();
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        std::uint64_t evals = 0;
        for (const HostResolution& r :
             resolver.ResolveAll(guids_[ops_[i].guid])) {
          evals += std::uint64_t(r.hash_count);
        }
        c.hash_evals += evals;
        if (!ops_[i].insert) c.lookup_hash_evals += evals;
      }
      c.lookup_resolves = std::uint64_t(k) * pass.lookups;
      c.point_queries = c.lookup_point_queries =
          oracle.label_queries() - labels_before;
      c.vector_queries = VectorCalls(oracle) - vectors_before;
      c.vector_hits = oracle.latency_cache_hits() - vector_hits_before;
      // Replica-side reads plus the querier's local-replica read.
      c.store_reads = NodeReads() - node_reads_before + pass.lookups;
      c.store_upserts = std::uint64_t(k + 1) * pass.updates;
      c.wire_messages = pass.messages;
      c.wire_bytes = pass.bytes;
      c.retransmits =
          CounterValue(registry.Snapshot(), "fault.retransmissions");
      c.events = sim.executed_events() - events_before;
      c.mean_queue_depth = depth_sum / double(pass.windows.size());
    }
    return pass;
  }

  LayerSample Sample(std::size_t max_lookups) override {
    LayerSample sample;
    for (const WireOp& op : ops_) {
      if (sample.guids.size() >= max_lookups) break;
      if (op.insert) continue;
      sample.guids.push_back(guids_[op.guid]);
      sample.queriers.push_back(op.source);
      sample.answers.push_back(current_[op.guid]);
      sample.times_ms.push_back(op.at_ms);
    }
    return sample;
  }

  // The wire executor has no DMapService; the replay legs use one over the
  // same environment holding the GUIDs' final NAs.
  DMapService& ReplayService() override {
    if (replay_ == nullptr) {
      replay_ = std::make_unique<DMapService>(env_->graph, env_->table,
                                              PinnedOptions());
      replay_->oracle().SetHubLabels(env_->hub_labels.get());
      for (std::size_t g = 0; g < guids_.size(); ++g) {
        (void)replay_->Insert(guids_[g], current_[g]);
      }
      replay_->RefreshReadSnapshots();
    }
    return *replay_;
  }
  const MappingEntry* LiveStoreRead(AsId as, const Guid& guid) override {
    return net_->node(as).store().Lookup(guid);
  }

 private:
  struct WireOp {
    double at_ms = 0.0;
    std::uint32_t guid = 0;
    AsId source = kInvalidAs;
    bool insert = false;
  };

  std::uint64_t NodeReads() {
    std::uint64_t reads = 0;
    for (AsId as = 0; as < env_->graph.num_nodes(); ++as) {
      const DMapNode::Stats& s = net_->node(as).stats();
      reads += s.lookups_served + s.lookups_missing;
    }
    return reads;
  }

  void Issue(PassResult& pass, std::size_t i) {
    const WireOp& op = ops_[i];
    const double start_ms = net_->simulator().Now().millis();
    if (op.insert) {
      const std::uint32_t seq = ++issued_seq_[op.guid];
      const NetworkAddress na{current_[op.guid].as, next_locator_++};
      locator_seq_[na.locator] = seq;
      current_[op.guid] = na;
      last_issue_ms_[op.guid] = start_ms;
      net_->InsertAsync(guids_[op.guid], na,
                        [this, &pass, i, seq](const UpdateResult& r) {
                          OpOutcome& o = pass.ops[i];
                          o.kind = kUpdate;
                          o.vms = r.latency_ms;
                          o.flags = OkFlag(r.status == ResolverStatus::kOk);
                          std::uint32_t& committed =
                              committed_seq_[ops_[i].guid];
                          committed = std::max(committed, seq);
                        });
      return;
    }
    net_->LookupAsync(
        guids_[op.guid], op.source,
        [this, &pass, i, start_ms](const LookupResult& r) {
          const std::uint32_t g = ops_[i].guid;
          OpOutcome& o = pass.ops[i];
          o.kind = kLookup;
          o.vms = r.latency_ms;
          o.attempts = std::uint16_t(r.attempts);
          o.flags = OkFlag(r.found);
          if (!r.found || r.nas.empty()) return;
          const auto seq = locator_seq_.find(r.nas[0].locator);
          const std::uint32_t served =
              seq == locator_seq_.end() ? 0 : seq->second;
          if (served < committed_seq_[g]) o.flags |= kStale;
          // Not racing a write: the latest NA is on every replica.
          if (last_issue_ms_[g] < start_ms - kQuietMs &&
              !SameNa(r, current_[g])) {
            o.flags |= kWrong;
          }
        });
  }

  RunConfig config_;
  std::unique_ptr<SimEnvironment> env_;
  std::unique_ptr<WorkloadGenerator> generator_;
  std::vector<Guid> guids_;
  std::vector<NetworkAddress> current_;        // latest NA issued per GUID
  std::vector<std::uint32_t> issued_seq_;      // writes issued per GUID
  std::vector<std::uint32_t> committed_seq_;   // writes acknowledged
  std::vector<double> last_issue_ms_;
  std::unordered_map<std::uint32_t, std::uint32_t> locator_seq_;
  // Fresh locators for re-registrations, above every generated one.
  std::uint32_t next_locator_ = 0x80000000u;
  std::vector<WireOp> ops_;
  std::unique_ptr<ProtocolNetwork> net_;
  std::unique_ptr<DMapService> replay_;
};

// ---- event-overload -------------------------------------------------------

class EventOverload final : public Workload {
 public:
  explicit EventOverload(const RunConfig& config) : config_(config) {}

  void Setup() override {
    env_ = BuildEnv(config_.smoke ? kSmokeAses : kQuarterAses,
                    config_.threads);
    WorkloadGenerator generator(
        env_->graph,
        ZipfWorkload(config_.smoke ? 2'000 : kOverloadGuids, config_.seed));
    const std::vector<InsertOp> inserts = generator.Inserts(false);
    const auto attachment = Attachments(inserts);

    DMapOptions options = PinnedOptions();
    options.probe_retries = 2;
    service_ = std::make_unique<DMapService>(env_->graph, env_->table, options);
    service_->oracle().SetHubLabels(env_->hub_labels.get());
    for (const InsertOp& op : inserts) (void)service_->Insert(op.guid, op.na);
    service_->RefreshReadSnapshots();

    // Analytic saturation as fig8_offered_load computes it: a light point
    // (20% of one server's capacity) measures the hottest server's share of
    // tier arrivals; saturation = mu_eff / share.
    const ServingConfig serving = PinnedServing();
    const double mu_eff = EffectiveServiceRatePerS(serving);
    ArrivalParams calibration;
    calibration.base_rate_per_s = 0.2 * mu_eff;
    calibration.horizon_s =
        double(config_.smoke ? 2'000 : kCalibrationArrivals) /
        calibration.base_rate_per_s;
    calibration.seed = SubSeed(config_.seed, 4);
    {
      Simulator sim;
      EventDrivenLookup exec(sim, *service_);
      ServingTier tier(serving);
      exec.SetServingTier(&tier);
      for (const ArrivalOp& a :
           OpenLoopArrivals(env_->graph, generator, calibration).Generate()) {
        exec.LookupAsync(a.guid, a.source, SimTime::Millis(a.time_ms),
                         [](const LookupResult&) {});
      }
      sim.Run();
      const double share = double(tier.HottestServer().second) /
                           double(std::max<std::uint64_t>(1, tier.arrivals()));
      saturation_per_s_ = mu_eff / share;
    }

    // The measured stream: 1.2x saturation, a 3x flash crowd over 10% of
    // the horizon.
    ArrivalParams arrivals;
    arrivals.base_rate_per_s = kOverloadFactor * saturation_per_s_;
    const double ops = config_.smoke ? 20'000.0
                                     : kOverloadOpsPerSecond * config_.seconds;
    arrivals.horizon_s = ops / arrivals.base_rate_per_s;
    arrivals.burst_start_s = 0.45 * arrivals.horizon_s;
    arrivals.burst_duration_s = 0.1 * arrivals.horizon_s;
    arrivals.burst_multiplier = 3.0;
    arrivals.seed = SubSeed(config_.seed, 5);
    stream_ = OpenLoopArrivals(env_->graph, generator, arrivals).Generate();
    for (const ArrivalOp& a : stream_) {
      expected_.push_back(attachment.at(a.guid));
    }

    sim_ = std::make_unique<Simulator>();
    exec_ = std::make_unique<EventDrivenLookup>(*sim_, *service_);
    tier_ = std::make_unique<ServingTier>(serving);
    exec_->SetServingTier(tier_.get());
  }

  PassResult Run(Tracer* tracer) override {
    const std::uint32_t window = config_.smoke ? 64 : kOverloadWindow;
    PassResult pass;
    pass.ops.resize(stream_.size());
    MetricsRegistry registry(1);
    if (tracer != nullptr) {
      service_->SetMetrics(&registry);
      tier_->SetMetrics(&registry);
    }
    const std::uint64_t labels_before = service_->oracle().label_queries();
    double queue_wait_sum = 0.0;
    std::uint64_t queue_wait_n = 0;
    double depth_sum = 0.0;

    const std::int64_t start = NowNs();
    for (std::size_t begin = 0; begin < stream_.size(); begin += window) {
      const std::size_t end = std::min(stream_.size(), begin + window);
      const std::int64_t t0 = NowNs();
      for (std::size_t i = begin; i < end; ++i) {
        const ArrivalOp& a = stream_[i];
        exec_->LookupAsync(
            a.guid, a.source, SimTime::Millis(a.time_ms) - sim_->Now(),
            [this, &pass, &queue_wait_sum, &queue_wait_n,
             i](const LookupResult& r) {
              OpOutcome& o = pass.ops[i];
              o.kind = kLookup;
              o.vms = r.latency_ms;
              o.attempts = std::uint16_t(r.attempts);
              if (r.found) {
                o.flags = kFound;
                queue_wait_sum += r.queue_delay_ms;
                ++queue_wait_n;
                if (!SameNa(r, expected_[i])) o.flags |= kWrong;
              } else {
                // Only shedding may lose a lookup: there are no faults.
                o.flags = r.admission == AdmissionOutcome::kShed
                              ? std::uint8_t{0}
                              : std::uint8_t{kWrong};
              }
            });
      }
      if (end < stream_.size()) {
        sim_->RunUntil(SimTime::Millis(stream_[end].time_ms));
      } else {
        sim_->Run();
      }
      const std::int64_t t1 = NowNs();
      pass.windows.push_back(Window{t1 - t0, std::uint32_t(end - begin), 0});
      depth_sum += double(sim_->PendingEvents());
      if (tracer != nullptr) {
        tracer->Record(0, Span{0, 0, begin, t0, t1, kSpanSimWindow},
                       end - begin, true);
      }
    }
    pass.wall_s = double(NowNs() - start) * 1e-9;
    pass.lookups = stream_.size();
    std::uint64_t attempts = 0;
    for (const OpOutcome& o : pass.ops) attempts += o.attempts;
    pass.messages = 2 * attempts;
    CountFlagged(pass, "lookup failed without a shed or returned a wrong NA");

    LayerCounts& c = pass.counts;
    c.hot_share = double(tier_->HottestServer().second) /
                  double(std::max<std::uint64_t>(1, tier_->arrivals()));
    if (tracer != nullptr) {
      service_->SetMetrics(nullptr);
      tier_->SetMetrics(nullptr);
      const MetricsSnapshot snap = registry.Snapshot();
      c.resolves = c.lookup_resolves =
          HistogramCount(snap, "algo1.rehash_depth");
      c.hash_evals = c.lookup_hash_evals =
          CounterValue(snap, "algo1.hash_evaluations");
      c.point_queries = c.lookup_point_queries =
          service_->oracle().label_queries() - labels_before;
      c.tier_arrivals = CounterValue(snap, "serve.arrivals");
      c.tier_shed = CounterValue(snap, "serve.shed_tokens") +
                    CounterValue(snap, "serve.shed_queue");
      // Admitted probes read the replica's store; every lookup also reads
      // its local replica.
      c.store_reads = c.tier_arrivals - c.tier_shed + pass.lookups;
      c.events = sim_->executed_events();
      c.mean_queue_depth = depth_sum / double(pass.windows.size());
    }
    c.queue_wait_sum_ms = queue_wait_sum;
    c.queue_wait_n = queue_wait_n;
    return pass;
  }

  void Verify(std::vector<std::string>& failures) override {
    std::vector<Guid> guids;
    std::vector<AsId> sources;
    for (const ArrivalOp& a : stream_) {
      guids.push_back(a.guid);
      sources.push_back(a.source);
    }
    CrossCheckExecutors(*service_, guids, sources, failures);
  }

  LayerSample Sample(std::size_t max_lookups) override {
    LayerSample sample;
    const std::size_t n = std::min(max_lookups, stream_.size());
    for (std::size_t i = 0; i < n; ++i) {
      sample.guids.push_back(stream_[i].guid);
      sample.queriers.push_back(stream_[i].source);
      sample.answers.push_back(expected_[i]);
      sample.times_ms.push_back(stream_[i].time_ms);
    }
    return sample;
  }
  DMapService& ReplayService() override { return *service_; }
  const MappingEntry* LiveStoreRead(AsId as, const Guid& guid) override {
    return service_->StoreLookup(as, guid);
  }

 private:
  RunConfig config_;
  std::unique_ptr<SimEnvironment> env_;
  std::unique_ptr<DMapService> service_;
  double saturation_per_s_ = 0.0;
  std::vector<ArrivalOp> stream_;
  std::vector<NetworkAddress> expected_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<EventDrivenLookup> exec_;
  std::unique_ptr<ServingTier> tier_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "closed-read-zipf", "mobility-cache", "wire-mixed", "event-overload"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "closed-read-zipf") {
    return std::make_unique<ClosedReadZipf>(config);
  }
  if (config.workload == "mobility-cache") {
    return std::make_unique<MobilityCache>(config);
  }
  if (config.workload == "wire-mixed") {
    return std::make_unique<WireMixed>(config);
  }
  if (config.workload == "event-overload") {
    return std::make_unique<EventOverload>(config);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace dmapbench
