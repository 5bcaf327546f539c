#include "baseline/home_agent.h"

namespace dmap {

UpdateResult HomeAgent::Insert(const Guid& guid, NetworkAddress na) {
  UpdateResult result;
  auto& reg = registrations_[guid];
  if (reg.home == kInvalidAs) reg.home = na.as;  // first attachment = home
  reg.entry.nas = NaSet(na);
  result.version = ++reg.entry.version;
  result.replicas = {reg.home};
  result.attempts = 1;
  result.latency_ms = oracle_->RttMs(na.as, reg.home);
  FinishWrite(WriteOp::kInsert, result);
  return result;
}

UpdateResult HomeAgent::Update(const Guid& guid, NetworkAddress na) {
  const auto it = registrations_.find(guid);
  if (it == registrations_.end()) {
    throw std::invalid_argument("HomeAgent::Update: unknown GUID");
  }
  it->second.entry.nas = NaSet(na);
  UpdateResult result;
  result.version = ++it->second.entry.version;
  result.replicas = {it->second.home};
  result.attempts = 1;
  // Binding update travels from the new attachment to the home agent.
  result.latency_ms = oracle_->RttMs(na.as, it->second.home);
  FinishWrite(WriteOp::kUpdate, result);
  return result;
}

LookupResult HomeAgent::Lookup(const Guid& guid, AsId querier) {
  LookupResult result;
  ProbeTrace* trace = StartTrace(result, 'L', guid, querier);
  result.attempts = 1;
  const auto it = registrations_.find(guid);
  if (it == registrations_.end()) {
    // The home agent of an unregistered GUID is unknown; modelled as an
    // instant local NACK.
    if (trace) {
      trace->probes.push_back(
          ProbeEvent{kInvalidAs, 0.0, ProbeOutcome::kMiss});
    }
    FinishLookup(result);
    return result;
  }
  const AsId home = it->second.home;
  result.found = true;
  result.nas = it->second.entry.nas;
  result.serving_as = home;
  result.latency_ms = oracle_->RttMs(querier, home);
  if (trace) {
    trace->probes.push_back(
        ProbeEvent{home, result.latency_ms, ProbeOutcome::kHit});
  }
  FinishLookup(result);
  return result;
}

AsId HomeAgent::HomeOf(const Guid& guid) const {
  const auto it = registrations_.find(guid);
  return it == registrations_.end() ? kInvalidAs : it->second.home;
}

}  // namespace dmap
