// MobileIP-style home-agent baseline (Section II-B): the AS where a GUID is
// first registered becomes its home; every subsequent update and every
// lookup — no matter where it originates — must round-trip to the home
// agent. No locality, no replication; exactly the "high overhead since all
// mappings are resolved by the home agent regardless of its distance to
// correspondents" behaviour the paper criticises.
#pragma once

#include <unordered_map>

#include "baseline/resolver.h"
#include "common/thread_annotations.h"

namespace dmap {

class HomeAgent final : public NameResolver {
 public:
  explicit HomeAgent(PathOracle& oracle) : oracle_(&oracle) {}

  std::string name() const override { return "home-agent"; }

  [[nodiscard]] UpdateResult Insert(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] UpdateResult Update(const Guid& guid,
                                    NetworkAddress na) override;
  [[nodiscard]] LookupResult Lookup(const Guid& guid, AsId querier) override;

  // The home AS of a registered GUID, or kInvalidAs.
  AsId HomeOf(const Guid& guid) const;

 private:
  struct Registration {
    AsId home = kInvalidAs;
    MappingEntry entry;
  };

  PathOracle* oracle_;
  // Bulk-loaded before the lookups that read it.
  std::unordered_map<Guid, Registration, GuidHash> registrations_
      WRITE_SERIAL_READ_SHARED();
};

}  // namespace dmap
