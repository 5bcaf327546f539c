// Central-directory baseline: one designated AS hosts every mapping (an
// idealised "single DNS root" — Section II-B's argument for why a
// centralised service cannot meet the latency/staleness requirements).
// Useful as the simplest possible comparator and as a lower bound on
// infrastructure.
#pragma once

#include <unordered_map>

#include "baseline/resolver.h"
#include "common/thread_annotations.h"

namespace dmap {

class CentralDirectory final : public NameResolver {
 public:
  CentralDirectory(PathOracle& oracle, AsId server)
      : oracle_(&oracle), server_(server) {}

  std::string name() const override { return "central-directory"; }
  AsId server() const { return server_; }

  [[nodiscard]] UpdateResult Insert(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] UpdateResult Update(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] LookupResult Lookup(const Guid& guid, AsId querier) override;

 private:
  PathOracle* oracle_;
  AsId server_;
  // Bulk-loaded before the lookups that read it.
  std::unordered_map<Guid, MappingEntry, GuidHash> entries_
      WRITE_SERIAL_READ_SHARED();
};

}  // namespace dmap
