#include "serve/serving_config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace dmap {
namespace {

TEST(ServingConfigTest, DefaultsAreDisabledAndValid) {
  const ServingConfig config;
  EXPECT_FALSE(config.enabled);
  EXPECT_NO_THROW(config.Validate());
  EXPECT_DOUBLE_EQ(config.MeanServiceMs(), 0.5);  // 2000/s
}

// Validation errors must name the offending field, like DMapOptions.
TEST(ServingConfigTest, ValidateNamesTheOffendingField) {
  ServingConfig config;
  config.service_rate_per_s = 0.0;
  try {
    config.Validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("service_rate"), std::string::npos);
  }

  config = ServingConfig{};
  config.concurrency = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = ServingConfig{};
  config.queue_depth = -1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = ServingConfig{};
  config.bucket_rate_per_s = -1.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = ServingConfig{};
  config.bucket_rate_per_s = 100.0;
  config.bucket_burst = 0.5;
  try {
    config.Validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bucket_burst"), std::string::npos);
  }
  // An inactive bucket (admission=none) does not constrain bucket_burst.
  config.admission = AdmissionPolicy::kNone;
  EXPECT_NO_THROW(config.Validate());
}

TEST(ServingConfigTest, ParsesInlineArgWithImpliedEnable) {
  const ServingConfig config = ServingConfig::ParseArg(
      "model=exponential,service_rate=1250,concurrency=4,queue_depth=8,"
      "admission=none,seed=7");
  EXPECT_TRUE(config.enabled);  // passing the flag implies enabled
  EXPECT_EQ(config.model, ServiceModel::kExponential);
  EXPECT_DOUBLE_EQ(config.service_rate_per_s, 1250.0);
  EXPECT_EQ(config.concurrency, 4);
  EXPECT_EQ(config.queue_depth, 8);
  EXPECT_EQ(config.admission, AdmissionPolicy::kNone);
  EXPECT_EQ(config.seed, 7u);

  // An explicit enabled=false wins over the implied default.
  EXPECT_FALSE(ServingConfig::ParseArg("enabled=false,service_rate=10")
                   .enabled);
}

TEST(ServingConfigTest, InlineRejectsUnknownKeysAndBadEnums) {
  EXPECT_THROW(ServingConfig::ParseArg("service_rte=100"),
               std::invalid_argument);
  EXPECT_THROW(ServingConfig::ParseArg("model=gaussian"),
               std::invalid_argument);
  EXPECT_THROW(ServingConfig::ParseArg("admission=open"),
               std::invalid_argument);
  EXPECT_THROW(ServingConfig::ParseArg("service_rate=-5"),
               std::invalid_argument);
}

TEST(ServingConfigTest, RejectsNarrowingAndNan) {
  // 2^32 + 1 used to narrow to 1 in both int fields.
  EXPECT_THROW(ServingConfig::ParseArg("concurrency=4294967297"),
               std::runtime_error);
  EXPECT_THROW(ServingConfig::ParseArg("queue_depth=4294967297"),
               std::runtime_error);
  // NaN used to pass Validate()'s `bucket_burst < 1` with the bucket on.
  EXPECT_THROW(ServingConfig::ParseArg("bucket_rate=100,bucket_burst=nan"),
               std::runtime_error);
  ServingConfig config;
  config.bucket_rate_per_s = 100.0;
  config.bucket_burst = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  // A negative seed used to wrap to 2^64 - 1.
  EXPECT_THROW(ServingConfig::ParseArg("seed=-1"), std::runtime_error);
}

TEST(ServingConfigTest, FromOptionNamesTheOption) {
  EXPECT_FALSE(ServingConfig::FromOption(Config()).enabled);
  const Config inline_arg = Config::ParseString("serving = service_rate=100");
  EXPECT_TRUE(ServingConfig::FromOption(inline_arg).enabled);
  try {
    ServingConfig::FromOption(Config::ParseString("serving = model=gauss"));
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'serving'"), std::string::npos)
        << e.what();
  }
}

TEST(ServingConfigTest, ParsesFileFormAndShippedExample) {
  const std::string path =
      testing::TempDir() + "/serving_config_test.serving";
  {
    std::ofstream out(path);
    out << "# comment\nmodel = deterministic\nservice_rate = 333\n"
           "queue_depth = 2\n";
  }
  const ServingConfig config = ServingConfig::ParseArg(path);
  EXPECT_TRUE(config.enabled);  // files default to enabled too
  EXPECT_DOUBLE_EQ(config.service_rate_per_s, 333.0);
  EXPECT_EQ(config.queue_depth, 2);
  std::remove(path.c_str());
}

TEST(ServingConfigTest, WireNamesRoundTrip) {
  EXPECT_STREQ(ServiceModelName(ServiceModel::kDeterministic),
               "deterministic");
  EXPECT_STREQ(ServiceModelName(ServiceModel::kExponential), "exponential");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kTokenBucket),
               "token_bucket");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kNone), "none");
}

}  // namespace
}  // namespace dmap
