// Common interface over name-resolution schemes, so the baseline comparison
// (RunBaselineComparison) and the cross-backend contract tests can drive
// DMap and the related-work baselines (Section VI) through one code path: a
// Chord-style DHT (modelling DHT-MAP [38] / LISP-DHT [10]), a MobileIP-style
// home agent, and a single central directory.
//
// The interface carries exactly the verbs the comparison measures — Insert,
// Update and Lookup — with uniform semantics: Update of an unknown GUID
// throws std::invalid_argument (insert first) in every backend, and a
// Lookup of an unknown GUID reports found = false. DMapService's other
// verbs (multi-homing, deregistration, stale-view lookups, failures) are
// called on the service directly.
//
// Observability rides on the base class: EnableMetrics registers one
// uniform instrument set per scheme ("<name()>.lookups", ".lookup_hits",
// ".lookup_misses", ".inserts", ".updates", latency/attempt histograms) and
// EnableTracing samples per-lookup ProbeTraces, so a new backend gets
// metered by calling the protected Finish* helpers — no exporter changes
// needed. DMapResolver overrides both to delegate to DMapService's own
// richer "dmap.*" instruments instead (never both, which would
// double-count).
#pragma once

#include <string>

#include "core/dmap_service.h"

namespace dmap {

class NameResolver {
 public:
  virtual ~NameResolver() = default;

  virtual std::string name() const = 0;

  // Registers/refreshes the GUID from the AS in `na`. [[nodiscard]]: the
  // result reports latency/attempts; pure bulk loaders discard it with
  // std::ignore to say so explicitly.
  [[nodiscard]] virtual UpdateResult Insert(const Guid& guid,
                                            NetworkAddress na) = 0;
  // Mobility: replaces the NA set. Throws std::invalid_argument if the
  // GUID was never inserted.
  [[nodiscard]] virtual UpdateResult Update(const Guid& guid,
                                            NetworkAddress na) = 0;
  [[nodiscard]] virtual LookupResult Lookup(const Guid& guid,
                                            AsId querier) = 0;

  // Observability. Both default to off; the uninstrumented path costs one
  // predictable branch per operation.
  virtual void EnableMetrics(MetricsRegistry* registry);
  virtual void EnableTracing(ProbeTracer* tracer) { tracer_ = tracer; }

 protected:
  enum class WriteOp { kInsert, kUpdate };

  // Starts a per-lookup trace if tracing is on and `guid` is sampled.
  // Returns the trace living inside `result` (null when not sampled);
  // the caller appends ProbeEvents, FinishLookup seals and records it.
  ProbeTrace* StartTrace(LookupResult& result, char op, const Guid& guid,
                         AsId querier) const;

  // Accounts the finished operation under this scheme's uniform
  // instruments (no-ops with metrics off) and, for lookups, records the
  // result's trace if one was started.
  void FinishLookup(LookupResult& result);
  void FinishWrite(WriteOp op, const UpdateResult& result);

  MetricsRegistry* metrics_ = nullptr;
  ProbeTracer* tracer_ = nullptr;

 private:
  struct Instruments {
    CounterId inserts, updates, lookups, lookup_hits, lookup_misses;
    HistogramId lookup_latency_ms, update_latency_ms, lookup_attempts;
  };
  Instruments ins_{};
};

// Adapter presenting DMapService through the interface.
class DMapResolver final : public NameResolver {
 public:
  DMapResolver(const AsGraph& graph, const PrefixTable& table,
               const DMapOptions& options)
      : service_(graph, table, options) {}

  std::string name() const override {
    return "dmap-k" + std::to_string(service_.options().k);
  }
  [[nodiscard]] UpdateResult Insert(const Guid& guid,
                                    NetworkAddress na) override {
    return service_.Insert(guid, na);
  }
  [[nodiscard]] UpdateResult Update(const Guid& guid,
                                    NetworkAddress na) override {
    return service_.Update(guid, na);
  }
  [[nodiscard]] LookupResult Lookup(const Guid& guid, AsId querier) override {
    return service_.Lookup(guid, querier);
  }

  // The service accounts its own richer "dmap.*" instrument set; the
  // uniform per-scheme instruments stay unregistered to avoid counting
  // every operation twice.
  void EnableMetrics(MetricsRegistry* registry) override {
    metrics_ = registry;
    service_.SetMetrics(registry);
  }
  void EnableTracing(ProbeTracer* tracer) override {
    tracer_ = tracer;
    service_.SetTracer(tracer);
  }

  DMapService& service() { return service_; }

 private:
  DMapService service_;
};

}  // namespace dmap
