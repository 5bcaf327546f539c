#include "baseline/resolver.h"

namespace dmap {

void NameResolver::EnableMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) return;
  const std::string p = name() + ".";
  ins_.inserts = registry->Counter(p + "inserts");
  ins_.updates = registry->Counter(p + "updates");
  ins_.lookups = registry->Counter(p + "lookups");
  ins_.lookup_hits = registry->Counter(p + "lookup_hits");
  ins_.lookup_misses = registry->Counter(p + "lookup_misses");
  ins_.lookup_latency_ms = registry->Histogram(
      p + "lookup_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.update_latency_ms = registry->Histogram(
      p + "update_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.lookup_attempts =
      registry->Histogram(p + "lookup_attempts",
                          MetricsRegistry::CountBoundaries());
}

ProbeTrace* NameResolver::StartTrace(LookupResult& result, char op,
                                     const Guid& guid, AsId querier) const {
  if (tracer_ == nullptr || !tracer_->ShouldTrace(guid)) return nullptr;
  result.trace.emplace();
  ProbeTrace& trace = *result.trace;
  trace.op = op;
  trace.guid_fp = guid.Fingerprint64();
  trace.querier = querier;
  return &trace;
}

void NameResolver::FinishLookup(LookupResult& result) {
  if (metrics_ != nullptr) {
    metrics_->Add(ins_.lookups, 1, 0);
    metrics_->Add(result.found ? ins_.lookup_hits : ins_.lookup_misses, 1,
                  0);
    metrics_->Observe(ins_.lookup_latency_ms, result.latency_ms, 0);
    metrics_->Observe(ins_.lookup_attempts, double(result.attempts), 0);
  }
  if (result.trace.has_value()) {
    ProbeTrace& trace = *result.trace;
    trace.found = result.found;
    trace.local_won = result.served_locally;
    trace.latency_ms = result.latency_ms;
    trace.attempts = result.attempts;
    tracer_->Record(0, trace);
  }
}

void NameResolver::FinishWrite(WriteOp op, const UpdateResult& result) {
  if (metrics_ == nullptr) return;
  metrics_->Add(op == WriteOp::kInsert ? ins_.inserts : ins_.updates, 1, 0);
  if (result.latency_ms >= 0) {
    metrics_->Observe(ins_.update_latency_ms, result.latency_ms, 0);
  }
}

}  // namespace dmap
