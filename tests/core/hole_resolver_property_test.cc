// Parameterised invariants of Algorithm 1 across announced-space density:
// for any density, resolution terminates, lands on an announced address,
// the mean hash-evaluation count follows the geometric law ~1/density, and
// the per-AS load stays proportional to announced share.
#include <gtest/gtest.h>

#include <cmath>

#include "bgp/prefix_gen.h"
#include "core/hole_resolver.h"

namespace dmap {
namespace {

class HoleResolverDensityTest : public testing::TestWithParam<double> {};

TEST_P(HoleResolverDensityTest, GeometricHashCountAndProportionalLoad) {
  const double density = GetParam();
  PrefixGenParams params;
  params.num_ases = 150;
  params.announced_fraction = density;
  params.seed = 77;
  const PrefixTable table = GeneratePrefixTable(params);
  ASSERT_NEAR(table.announced_fraction(), density, 0.02);

  const GuidHashFamily hashes(1, 11);
  const HoleResolver resolver(hashes, table, 64);

  constexpr int kGuids = 30000;
  double total_evals = 0;
  std::vector<std::uint64_t> load(params.num_ases, 0);
  for (int i = 0; i < kGuids; ++i) {
    const HostResolution r =
        resolver.ResolveAll(Guid::FromSequence(std::uint64_t(i)))[0];
    ASSERT_LT(r.host, params.num_ases);
    // The stored address must be announced and owned by the chosen host.
    const auto hit = table.Lookup(r.stored_address);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->owner, r.host);
    total_evals += r.hash_count;
    ++load[r.host];
  }

  // Geometric trials: E[evals] = 1 / density (fall-through negligible at
  // M = 64).
  const double actual_fraction = table.announced_fraction();
  EXPECT_NEAR(total_evals / kGuids, 1.0 / actual_fraction,
              0.05 / actual_fraction);

  // Load proportionality: aggregate over the top-share ASs (individually
  // small ASs are noisy at 30k samples).
  const std::uint64_t announced = table.announced_addresses();
  double big_share = 0, big_load = 0;
  for (AsId as = 0; as < params.num_ases; ++as) {
    const double share = double(table.AddressesOwnedBy(as)) /
                         double(announced);
    if (share > 0.02) {
      big_share += share;
      big_load += double(load[as]) / kGuids;
    }
  }
  ASSERT_GT(big_share, 0.1);
  EXPECT_NEAR(big_load, big_share, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Densities, HoleResolverDensityTest,
                         testing::Values(0.25, 0.40, 0.52, 0.65, 0.80));

}  // namespace
}  // namespace dmap
