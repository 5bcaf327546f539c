// Per-layer metrics of a traced run. The counts come from the traced pass
// (public counters, the MetricsRegistry hooks, the per-op results); the
// per-call costs come from replay legs that feed each layer's public
// function the inputs the workload recorded, after the workload finished.
// Every leg is fixed work on the first lookups of the stream.
#include <algorithm>
#include <fstream>
#include <limits>

#include "dmapbench.h"
#include "common/rng.h"
#include "core/mapping_store.h"
#include "core/resolver_cache.h"
#include "event/simulator.h"
#include "proto/messages.h"
#include "serve/serving_tier.h"
#include "topo/shortest_path.h"

namespace dmapbench {

using namespace dmap;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanWindow: return "window";
    case kSpanLookup: return "Lookup";
    case kSpanBatchUpdate: return "BatchUpdate";
    case kSpanRefreshReadSnapshots: return "RefreshReadSnapshots";
    case kSpanRefreshResolverSnapshot: return "RefreshResolverSnapshot";
    case kSpanCacheApplyFills: return "cache.ApplyFills";
    case kSpanCacheRefreshSnapshots: return "cache.RefreshSnapshots";
    case kSpanStoreRefresh: return "store.RefreshSnapshots";
    case kSpanSimWindow: return "sim.window";
    case kNumSpanNames: break;
  }
  return "?";
}

Tracer::Tracer(unsigned workers, std::uint64_t sample_every)
    : sample_every_(std::max<std::uint64_t>(1, sample_every)),
      lanes_(workers) {}

void Tracer::Record(unsigned worker, const Span& span, std::uint64_t units,
                    bool keep) {
  Lane& lane = lanes_[worker];
  Totals& totals = lane.totals[span.name];
  totals.ns += span.end_ns - span.start_ns;
  ++totals.calls;
  totals.units += units;
  if (!keep) return;
  lane.spans.push_back(span);
  if (lane.spans.back().id == 0) lane.spans.back().id = NextId(worker);
}

Tracer::Totals Tracer::Total(SpanName name) const {
  Totals sum;
  for (const Lane& lane : lanes_) {
    sum.ns += lane.totals[name].ns;
    sum.calls += lane.totals[name].calls;
    sum.units += lane.totals[name].units;
  }
  return sum;
}

bool Tracer::WriteJson(const std::string& path, std::int64_t origin_ns) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"dmapbench.spans.v1\", \"spans\": [\n";
  bool first = true;
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans) {
      out << (first ? "" : ",\n") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \""
          << SpanNameString(s.name) << "\", \"op\": " << s.op
          << ", \"start_ns\": " << (s.start_ns - origin_ns)
          << ", \"end_ns\": " << (s.end_ns - origin_ns) << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return bool(out);
}

namespace {

// Keeps replayed results observable so no leg is optimised away.
volatile std::uint64_t g_sink = 0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Times `reps` runs of `leg` and returns ns per unit of work.
template <typename Leg>
double NsPer(std::uint64_t units_per_rep, int reps, Leg&& leg) {
  const std::int64_t t0 = NowNs();
  for (int r = 0; r < reps; ++r) leg();
  return Ratio(double(NowNs() - t0), double(units_per_rep) * reps);
}

MappingEntry EntryFor(const NetworkAddress& na) {
  return MappingEntry{NaSet(na), 1, na.as};
}

}  // namespace

std::vector<Metric> MeasureLayers(Workload& workload, const RunConfig& config,
                                  const PassResult& untraced,
                                  const PassResult& traced,
                                  const Tracer& tracer) {
  const LayerSample sample = workload.Sample(config.smoke ? 2'048 : 65'536);
  DMapService& service = workload.ReplayService();
  const AsGraph& graph = service.oracle().graph();
  const std::size_t n = sample.guids.size();
  const int k = service.options().k;
  const std::size_t nk = n * std::size_t(k);
  const LayerCounts& c = traced.counts;
  std::uint64_t sink = 0;

  // ---- common/hash: the K-lane SipHash fan-out. ----
  std::vector<Ipv4Address> hashed(static_cast<std::size_t>(k));
  const double hash_ns = NsPer(nk, 4, [&] {
    for (const Guid& g : sample.guids) {
      service.hash_family().HashAllInto(g, hashed.data());
      sink += hashed[0].value();
    }
  });

  // ---- core/hole_resolver + bgp/dir24_8: Algorithm 1, batched. ----
  std::vector<HostResolution> hosts(nk);
  constexpr std::size_t kBatch = 256;
  const double resolve_ns = NsPer(nk, 2, [&] {
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t count = std::min(kBatch, n - b);
      service.resolver().ResolveBatch({sample.guids.data() + b, count},
                                      hosts.data() + b * std::size_t(k));
    }
  });

  // ---- topo: hub-label point queries, and per-source vectors behind a
  // fresh 64-entry LRU in the recorded querier order. ----
  std::vector<AsId> first_probe(n);
  const double point_ns = NsPer(nk, 2, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < k; ++r) {
        const AsId host = hosts[i * std::size_t(k) + std::size_t(r)].host;
        const double rtt = service.oracle().RttMs(sample.queriers[i], host);
        if (rtt < best || (rtt == best && host < first_probe[i])) {
          best = rtt;
          first_probe[i] = host;
        }
      }
    }
  });
  // A cold replay mostly misses; re-querying the last 64 sources times the
  // hits. The per-call cost weights the two by the workload's own hit rate.
  const std::size_t vectors = std::min<std::size_t>(n, config.smoke ? 32 : 200);
  PathOracle lru(graph, 64);
  double miss_ns = 0, hit_ns = 0, misses = 0, hits = 0;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    const std::size_t begin =
        pass == 0 ? 0 : vectors - std::min<std::size_t>(vectors, 64);
    for (std::size_t i = begin; i < vectors; ++i) {
      const std::uint64_t runs = lru.dijkstra_runs();
      const std::int64_t t0 = NowNs();
      sink += lru.LatenciesFrom(sample.queriers[i]).size();
      const double ns = double(NowNs() - t0);
      if (lru.dijkstra_runs() > runs) {
        miss_ns += ns;
        ++misses;
      } else {
        hit_ns += ns;
        ++hits;
      }
    }
  }
  const double lru_hit_rate =
      Ratio(double(c.vector_hits), double(c.vector_queries));
  const double vector_ns = (1 - lru_hit_rate) * Ratio(miss_ns, misses) +
                           lru_hit_rate * Ratio(hit_ns, hits);

  // ---- core/mapping_store: reads of the executor's live store; upserts
  // and one snapshot refresh on a fresh sharded store. ----
  const double read_ns = NsPer(nk, 2, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (int r = 0; r < k; ++r) {
        const AsId host = hosts[i * std::size_t(k) + std::size_t(r)].host;
        sink += workload.LiveStoreRead(host, sample.guids[i]) != nullptr;
      }
    }
  });
  ShardedMappingStore store(graph.num_nodes(), 4);
  const double upsert_ns = NsPer(nk, 1, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const MappingEntry entry = EntryFor(sample.answers[i]);
      for (int r = 0; r < k; ++r) {
        const HostResolution& h = hosts[i * std::size_t(k) + std::size_t(r)];
        sink += store.Upsert(h.host, sample.guids[i], entry, h.stored_address);
      }
    }
  });
  const double store_refresh_replay_ms =
      NsPer(1, 1, [&] { store.RefreshSnapshots(); }) * 1e-6;

  // ---- core/resolver_cache: fills, one snapshot publish, probes. ----
  CacheConfig cache_config;
  cache_config.capacity = std::size_t{1} << 17;
  cache_config.ttl_ms = 500.0;
  ResolverCache cache(cache_config);
  for (std::size_t i = 0; i < n; ++i) {
    cache.Put(sample.queriers[i], sample.guids[i], EntryFor(sample.answers[i]),
              SimTime::Zero());
  }
  const double cache_refresh_replay_ms =
      NsPer(1, 1, [&] { cache.RefreshSnapshots(); }) * 1e-6;
  const double probe_ns = NsPer(n, 4, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += cache.Probe(sample.queriers[i], sample.guids[i],
                          SimTime::Zero()) != nullptr;
    }
  });

  // ---- serve: admission on a fresh tier, first probes in arrival order.
  ServingConfig serving;
  serving.enabled = true;
  serving.model = ServiceModel::kExponential;
  serving.service_rate_per_s = 500.0;
  serving.queue_depth = 64;
  ServingTier tier(serving);
  const double admit_ns = NsPer(n, 1, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += std::uint64_t(
          tier.Admit(first_probe[i], SimTime::Millis(sample.times_ms[i]))
              .outcome);
    }
  });

  // ---- proto/messages: the lookup exchange of each sampled lookup. ----
  std::vector<Message> messages;
  messages.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const MessageHeader request{i + 1, sample.queriers[i], first_probe[i]};
    const MessageHeader reply{i + 1, first_probe[i], sample.queriers[i]};
    messages.push_back(LookupRequest{request, sample.guids[i]});
    messages.push_back(LookupResponse{reply, sample.guids[i], true,
                                      EntryFor(sample.answers[i])});
  }
  std::vector<std::vector<std::uint8_t>> wire(messages.size());
  std::uint64_t mix_bytes = 0;
  const double encode_ns = NsPer(messages.size(), 2, [&] {
    mix_bytes = 0;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      wire[m] = Encode(messages[m]);
      mix_bytes += wire[m].size();
    }
  });
  const double decode_ns = NsPer(messages.size(), 2, [&] {
    for (const std::vector<std::uint8_t>& bytes : wire) {
      sink += Decode(bytes).has_value();
    }
  });

  // ---- event: schedule + dispatch of no-op events at the queue depth
  // the workload ran at (one for the closed form, which has no queue). ----
  Simulator sim;
  Rng rng(config.seed);
  const std::size_t depth =
      std::max<std::size_t>(1, std::size_t(c.mean_queue_depth + 0.5));
  for (std::size_t d = 0; d < depth; ++d) {
    sim.ScheduleAt(SimTime::Millis(rng.NextDouble() * 1000.0), [] {});
  }
  const std::size_t dispatches = config.smoke ? 10'000 : 200'000;
  const double dispatch_ns = NsPer(dispatches, 1, [&] {
    for (std::size_t d = 0; d < dispatches; ++d) {
      sim.ScheduleAt(sim.Now() + SimTime::Millis(rng.NextDouble() * 1000.0),
                     [] {});
      sim.Step();
    }
  });

  // ---- core/dmap_service: Lookup and BatchUpdate. The closed-form
  // workloads timed every call in the traced pass; the others replay the
  // sample (BatchUpdate last: it moves the sampled GUIDs). ----
  const Tracer::Totals lookup_spans = tracer.Total(kSpanLookup);
  const double dmap_lookup_ns =
      lookup_spans.calls > 0
          ? Ratio(double(lookup_spans.ns), double(lookup_spans.calls))
          : NsPer(n, 1, [&] {
              for (std::size_t i = 0; i < n; ++i) {
                sink += service.Lookup(sample.guids[i], sample.queriers[i])
                            .found;
              }
            });
  const Tracer::Totals batch_spans = tracer.Total(kSpanBatchUpdate);
  double batch_ns_per_guid =
      Ratio(double(batch_spans.ns), double(batch_spans.units));
  if (batch_spans.calls == 0) {
    // Hosts of 8 GUIDs each, moving to the AS of a sampled querier.
    std::vector<std::vector<std::pair<Guid, NetworkAddress>>> batches;
    std::vector<Guid> unique = sample.guids;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    AsId to = kInvalidAs;
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (i % 8 == 0) {
        batches.emplace_back();
        to = sample.queriers[i % n];
      }
      batches.back().emplace_back(
          unique[i], NetworkAddress{to, 0x7f000000u + std::uint32_t(i)});
    }
    batch_ns_per_guid = NsPer(unique.size(), 1, [&] {
      for (const auto& moves : batches) {
        sink += service.BatchUpdate(moves).messages;
      }
    });
  }
  g_sink = sink;

  // ---- Counts per lookup / per operation. ----
  const double lookups = double(traced.lookups);
  const double ops = double(traced.lookups + traced.updates);
  std::uint64_t attempts = 0, lookup_records = 0;
  for (const OpOutcome& o : traced.ops) {
    if (o.kind != kLookup) continue;
    attempts += o.attempts;
    ++lookup_records;
  }

  const Tracer::Totals refresh = tracer.Total(kSpanRefreshReadSnapshots);
  const Tracer::Totals store_refresh = tracer.Total(kSpanStoreRefresh);
  const Tracer::Totals fills = tracer.Total(kSpanCacheApplyFills);
  const Tracer::Totals cache_publish = tracer.Total(kSpanCacheRefreshSnapshots);
  const double store_refresh_ms =
      store_refresh.calls > 0
          ? Ratio(double(store_refresh.ns), double(store_refresh.calls)) * 1e-6
          : store_refresh_replay_ms;
  const double cache_refresh_ms =
      refresh.calls > 0
          ? Ratio(double(fills.ns + cache_publish.ns), double(refresh.calls)) *
                1e-6
          : cache_refresh_replay_ms;

  // Attribution over the leaf layers a timed operation crosses (Algorithm
  // 1 includes its hashing; DMapService is their container), against the
  // worker time one operation took in the untraced pass.
  const double covered_ns =
      Ratio(resolve_ns * double(c.resolves) +
                point_ns * double(c.point_queries) +
                vector_ns * double(c.vector_queries) +
                read_ns * double(c.store_reads) +
                upsert_ns * double(c.store_upserts) +
                probe_ns * double(c.cache_probes) +
                admit_ns * double(c.tier_arrivals) +
                (encode_ns + decode_ns) * double(c.wire_messages) +
                dispatch_ns * double(c.events) +
                Ratio(double(refresh.ns), double(refresh.calls)) *
                    double(c.refreshes),
            ops);
  std::int64_t busy_ns = 0;
  std::vector<std::int64_t> worker_busy(untraced.workers, 0);
  for (const Window& w : untraced.windows) {
    busy_ns += w.ns;
    worker_busy[w.worker] += w.ns;
  }
  const double untraced_ops = double(untraced.lookups + untraced.updates);
  const double op_ns = Ratio(double(busy_ns), untraced_ops);
  const double max_busy =
      double(*std::max_element(worker_busy.begin(), worker_busy.end()));
  const double mean_busy = double(busy_ns) / double(untraced.workers);

  const double untraced_rate = Ratio(untraced_ops, untraced.wall_s);
  const double traced_rate = Ratio(ops, traced.wall_s);

  return {
      {"hash.ns_per_call", hash_ns, "ns"},
      {"hash.calls_per_lookup", Ratio(double(c.lookup_hash_evals), lookups),
       "count"},
      {"algo1.ns_per_resolve", resolve_ns, "ns"},
      {"algo1.resolves_per_lookup", Ratio(double(c.lookup_resolves), lookups),
       "count"},
      {"algo1.useful_frac", Ratio(double(c.resolves), double(c.hash_evals)),
       "ratio"},
      {"oracle.point_ns", point_ns, "ns"},
      {"oracle.points_per_lookup",
       Ratio(double(c.lookup_point_queries), lookups), "count"},
      {"oracle.vector_ns", vector_ns, "ns"},
      {"oracle.vectors_per_lookup", Ratio(double(c.vector_queries), lookups),
       "count"},
      {"oracle.lru_hit_frac", lru_hit_rate, "ratio"},
      {"store.read_ns", read_ns, "ns"},
      {"store.reads_per_lookup", Ratio(double(c.store_reads), lookups),
       "count"},
      {"store.upsert_ns", upsert_ns, "ns"},
      {"store.refresh_ms", store_refresh_ms, "ms"},
      {"cache.probe_ns", probe_ns, "ns"},
      {"cache.hit_frac", Ratio(double(c.cache_hits), double(c.cache_probes)),
       "ratio"},
      {"cache.refresh_ms", cache_refresh_ms, "ms"},
      {"dmap.lookup_ns", dmap_lookup_ns, "ns"},
      {"dmap.attempts_per_lookup",
       Ratio(double(attempts), double(lookup_records)), "count"},
      {"dmap.batch_ns_per_guid", batch_ns_per_guid, "ns"},
      {"serve.admit_ns", admit_ns, "ns"},
      {"serve.shed_frac", Ratio(double(c.tier_shed), double(c.tier_arrivals)),
       "ratio"},
      {"serve.queue_wait_vms_mean",
       Ratio(c.queue_wait_sum_ms, double(c.queue_wait_n)), "sim_ms"},
      {"serve.hot_share", c.hot_share, "ratio"},
      {"codec.encode_ns", encode_ns, "ns"},
      {"codec.decode_ns", decode_ns, "ns"},
      {"codec.bytes_per_msg",
       c.wire_messages > 0
           ? Ratio(double(c.wire_bytes), double(c.wire_messages))
           : Ratio(double(mix_bytes), double(messages.size())),
       "B"},
      {"net.msgs_per_lookup", Ratio(double(c.wire_messages), lookups),
       "count"},
      {"net.retransmits_per_op", Ratio(double(c.retransmits), ops), "count"},
      {"sim.dispatch_ns", dispatch_ns, "ns"},
      {"sim.events_per_op", Ratio(double(c.events), ops), "count"},
      {"pool.busy_frac",
       Ratio(double(busy_ns),
             untraced.wall_s * 1e9 * double(untraced.workers)),
       "ratio"},
      {"pool.imbalance", Ratio(max_busy, mean_busy), "ratio"},
      {"attrib.covered_frac", Ratio(covered_ns, op_ns), "ratio"},
      {"attrib.residual_ns_per_op", op_ns - covered_ns, "ns"},
      {"trace.overhead_frac", Ratio(untraced_rate - traced_rate, untraced_rate),
       "ratio"},
  };
}

}  // namespace dmapbench
