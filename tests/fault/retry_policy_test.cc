#include "fault/retry_policy.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dmap {
namespace {

TEST(RetryPolicyTest, TimeoutBacksOffGeometrically) {
  EXPECT_EQ(TimeoutForAttemptMs(200.0, 0, 2.0), 200.0);
  EXPECT_EQ(TimeoutForAttemptMs(200.0, 1, 2.0), 400.0);
  EXPECT_EQ(TimeoutForAttemptMs(200.0, 3, 3.0), 5400.0);
  EXPECT_EQ(TotalTimeoutCostMs(200.0, 2, 2.0), 200.0 + 400.0 + 800.0);
}

// Retry 0 is exactly the max(base, 1.5 * rtt) the wire protocol armed
// before the rule had a name, so replacing it changes no output bit.
TEST(RetryPolicyTest, AdaptiveTimeoutAtRetryZeroIsTheLegacyBound) {
  for (const double base : {0.0, 50.0, 200.0, 333.3}) {
    for (const double rtt : {0.0, 12.345678, 133.3, 140.0, 1e4}) {
      EXPECT_EQ(AdaptiveTimeoutMs(base, 0, 2.0, rtt),
                std::max(base, 1.5 * rtt))
          << "base " << base << " rtt " << rtt;
    }
  }
}

// Retransmissions back off like the plain policy until the RTT floor binds.
TEST(RetryPolicyTest, AdaptiveTimeoutFloorsEveryRetryAtOneAndAHalfRtt) {
  const double rtt = 100.0;  // floor 150 ms
  EXPECT_EQ(AdaptiveTimeoutMs(40.0, 0, 2.0, rtt), 150.0);
  EXPECT_EQ(AdaptiveTimeoutMs(40.0, 1, 2.0, rtt), 150.0);
  EXPECT_EQ(AdaptiveTimeoutMs(40.0, 2, 2.0, rtt), 160.0);
  EXPECT_EQ(AdaptiveTimeoutMs(40.0, 3, 2.0, rtt), 320.0);
  for (int retry = 0; retry < 4; ++retry) {
    EXPECT_EQ(AdaptiveTimeoutMs(400.0, retry, 3.0, rtt),
              TimeoutForAttemptMs(400.0, retry, 3.0));
  }
}

}  // namespace
}  // namespace dmap
