#include "baseline/central_directory.h"

#include <stdexcept>

namespace dmap {

UpdateResult CentralDirectory::Insert(const Guid& guid, NetworkAddress na) {
  auto& entry = entries_[guid];
  entry.nas = NaSet(na);
  UpdateResult result;
  result.version = ++entry.version;
  result.replicas = {server_};
  result.attempts = 1;
  result.latency_ms = oracle_->RttMs(na.as, server_);
  FinishWrite(WriteOp::kInsert, result);
  return result;
}

UpdateResult CentralDirectory::Update(const Guid& guid, NetworkAddress na) {
  const auto it = entries_.find(guid);
  if (it == entries_.end()) {
    throw std::invalid_argument("CentralDirectory::Update: unknown GUID");
  }
  it->second.nas = NaSet(na);
  UpdateResult result;
  result.version = ++it->second.version;
  result.replicas = {server_};
  result.attempts = 1;
  result.latency_ms = oracle_->RttMs(na.as, server_);
  FinishWrite(WriteOp::kUpdate, result);
  return result;
}

LookupResult CentralDirectory::Lookup(const Guid& guid, AsId querier) {
  LookupResult result;
  ProbeTrace* trace = StartTrace(result, 'L', guid, querier);
  result.attempts = 1;
  result.latency_ms = oracle_->RttMs(querier, server_);
  const auto it = entries_.find(guid);
  if (it != entries_.end()) {
    result.found = true;
    result.nas = it->second.nas;
    result.serving_as = server_;
  }
  if (trace) {
    trace->probes.push_back(
        ProbeEvent{server_, result.latency_ms,
                   result.found ? ProbeOutcome::kHit : ProbeOutcome::kMiss});
  }
  FinishLookup(result);
  return result;
}

}  // namespace dmap
