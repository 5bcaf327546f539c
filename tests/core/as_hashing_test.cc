#include "core/as_hashing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dmap {
namespace {

TEST(AsHashResolverTest, UniformResolveStaysInRange) {
  const GuidHashFamily hashes(5, 1);
  const AsHashResolver resolver(hashes, 1000);
  for (int i = 0; i < 1000; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    for (int k = 0; k < 5; ++k) {
      EXPECT_LT(resolver.Resolve(g, k), 1000u);
    }
  }
}

TEST(AsHashResolverTest, DeterministicAcrossInstances) {
  const GuidHashFamily h1(3, 9), h2(3, 9);
  const AsHashResolver a(h1, 500), b(h2, 500);
  for (int i = 0; i < 100; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(a.Resolve(g, k), b.Resolve(g, k));
    }
  }
}

TEST(AsHashResolverTest, UniformLoadIsBalancedByCount) {
  const GuidHashFamily hashes(1, 2);
  constexpr std::uint32_t kAses = 50;
  const AsHashResolver resolver(hashes, kAses);
  std::vector<int> counts(kAses, 0);
  constexpr int kGuids = 100000;
  for (int i = 0; i < kGuids; ++i) {
    ++counts[resolver.Resolve(Guid::FromSequence(std::uint64_t(i)), 0)];
  }
  const double expected = double(kGuids) / kAses;
  double chi2 = 0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 85.4);  // 99.9% critical value, 49 dof
}

TEST(AsHashResolverTest, WeightedVariantFollowsWeights) {
  const GuidHashFamily hashes(1, 3);
  const AsHashResolver resolver(hashes,
                                std::vector<double>{1.0, 3.0, 6.0});
  std::vector<int> counts(3, 0);
  constexpr int kGuids = 100000;
  for (int i = 0; i < kGuids; ++i) {
    ++counts[resolver.Resolve(Guid::FromSequence(std::uint64_t(i)), 0)];
  }
  EXPECT_NEAR(counts[0], kGuids * 0.1, 5 * std::sqrt(kGuids * 0.1));
  EXPECT_NEAR(counts[1], kGuids * 0.3, 5 * std::sqrt(kGuids * 0.3));
  EXPECT_NEAR(counts[2], kGuids * 0.6, 5 * std::sqrt(kGuids * 0.6));
}

TEST(AsHashResolverTest, ZeroWeightAsNeverChosen) {
  const GuidHashFamily hashes(1, 4);
  const AsHashResolver resolver(hashes,
                                std::vector<double>{1.0, 0.0, 1.0});
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(resolver.Resolve(Guid::FromSequence(std::uint64_t(i)), 0), 1u);
  }
}

TEST(AsHashResolverTest, ReplicasAreIndependent) {
  const GuidHashFamily hashes(2, 5);
  const AsHashResolver resolver(hashes, 10000);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    const Guid g = Guid::FromSequence(std::uint64_t(i));
    if (resolver.Resolve(g, 0) == resolver.Resolve(g, 1)) ++collisions;
  }
  EXPECT_LT(collisions, 5);
}

TEST(AsHashResolverTest, ValidationErrors) {
  const GuidHashFamily hashes(1, 6);
  EXPECT_THROW(AsHashResolver(hashes, 0), std::invalid_argument);
  EXPECT_THROW(AsHashResolver(hashes, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(AsHashResolver(hashes, std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(AsHashResolver(hashes, std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmap
