#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/serving_config.h"

namespace dmap::bench {
namespace {

Config Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Config::FromArgs(int(argv.size()), argv.data());
}

TEST(BenchUtilTest, ParsesWellFormedArguments) {
  const Config args =
      Parse({"--scale=0.05", "--threads", "4", "--anti-entropy=2147483647",
             "--fault-seed", "18446744073709551615"});
  EXPECT_EQ(Scale(args), 0.05);
  EXPECT_EQ(SimConfig::FromConfig(args).threads, 4u);
  EXPECT_EQ(AntiEntropy(args), 2147483647);
  EXPECT_EQ(FaultSeed(args), 18446744073709551615ULL);
  // Flags not given: the defaults, and no value for the optional knobs.
  const Config none = Parse({});
  EXPECT_EQ(Scale(none), 1.0);
  EXPECT_EQ(FaultSeed(none), 0u);
  EXPECT_EQ(WriteQuorum(none), std::nullopt);
  EXPECT_EQ(BatchUpdates(none), std::nullopt);
  EXPECT_FALSE(Cache(none).enabled());
  EXPECT_FALSE(ServingConfig::FromOption(none).enabled);
}

TEST(BenchUtilTest, AcceptsTheSimConfigMaxima) {
  const Config args = Parse({"--threads=4096", "--shards", "256"});
  EXPECT_EQ(SimConfig::FromConfig(args).threads, SimConfig::kMaxThreads);
  EXPECT_EQ(SimConfig::Shards(args), SimConfig::kMaxShards);
}

TEST(BenchUtilDeathTest, RejectsThreadsAndShardsBeyondSimConfigMaxima) {
  EXPECT_EXIT((void)SimConfig::FromConfig(Parse({"--threads=4097"})),
              testing::ExitedWithCode(2), "bad --threads");
  EXPECT_EXIT((void)SimConfig::Shards(Parse({"--shards=257"})),
              testing::ExitedWithCode(2), "bad --shards");
}

TEST(BenchUtilDeathTest, RejectsMalformedScale) {
  // NaN slips past a plain `<= 0` check into Scaled()'s integer cast.
  for (const char* bad : {"nan", "inf", "-inf", "0.5abc", "0", "-1", ""}) {
    EXPECT_EXIT((void)Scale(Parse({std::string("--scale=") + bad})),
                testing::ExitedWithCode(2), "bad --scale")
        << bad;
  }
}

TEST(BenchUtilDeathTest, RejectsAntiEntropyBeyondInt) {
  // 2^32 + 1 must not narrow to a budget of 1.
  for (const char* bad : {"4294967297", "2147483648", "-1"}) {
    EXPECT_EXIT((void)AntiEntropy(Parse({"--anti-entropy", bad})),
                testing::ExitedWithCode(2), "bad --anti-entropy")
        << bad;
  }
}

TEST(BenchUtilDeathTest, RejectsNegativeOrOverflowingFaultSeed) {
  // strtoull alone wraps "-1" to 2^64 - 1 and saturates past it.
  for (const char* bad : {"-1", " -1", "18446744073709551616", "7x", ""}) {
    EXPECT_EXIT((void)FaultSeed(Parse({std::string("--fault-seed=") + bad})),
                testing::ExitedWithCode(2), "bad --fault-seed")
        << bad;
  }
}

TEST(BenchUtilDeathTest, RejectsOutOfRangeKnobs) {
  EXPECT_EXIT((void)WriteQuorum(Parse({"--write-quorum=257"})),
              testing::ExitedWithCode(2), "bad --write-quorum");
  EXPECT_EXIT((void)ReadQuorum(Parse({"--read-quorum=0"})),
              testing::ExitedWithCode(2), "bad --read-quorum");
  EXPECT_EXIT((void)BatchUpdates(Parse({"--batch-updates=0"})),
              testing::ExitedWithCode(2), "bad --batch-updates");
  EXPECT_EXIT((void)SimConfig::FromConfig(Parse({"--trace-sample=0"})),
              testing::ExitedWithCode(2), "bad --trace-sample");
  EXPECT_EXIT((void)Cache(Parse({"--cache=capacity=8,tll_ms=5"})),
              testing::ExitedWithCode(2), "bad --cache.*tll_ms");
  EXPECT_EXIT(
      (void)ServingConfig::FromOption(Parse({"--serving=service_rte=100"})),
      testing::ExitedWithCode(2), "bad --serving.*service_rte");
  EXPECT_EXIT((void)ReadFaultPlan(Parse({"--fault-plan=/nonexistent.plan"})),
              testing::ExitedWithCode(2), "bad --fault-plan");
}

TEST(BenchUtilDeathTest, RejectsMalformedCommandLines) {
  EXPECT_EXIT((void)Parse({"stray"}), testing::ExitedWithCode(2),
              "unknown argument: stray");
  EXPECT_EXIT((void)Parse({"--write_quorum=1"}), testing::ExitedWithCode(2),
              "unknown argument: --write_quorum");
  EXPECT_EXIT((void)Parse({"--metrics-out="}), testing::ExitedWithCode(2),
              "bad --metrics-out");
  // A repeated flag is an error, as a duplicate config key is.
  EXPECT_EXIT((void)Parse({"--threads=1", "--threads", "2"}),
              testing::ExitedWithCode(2), "duplicate flag --threads");
}

TEST(BenchUtilDeathTest, CheckArgsRejectsFlagsNoReaderUsed) {
  const Config args = Parse({"--scale=0.5", "--cache=64"});
  (void)Scale(args);
  EXPECT_EXIT(CheckArgs(args), testing::ExitedWithCode(2),
              "unknown flag\\(s\\): --cache");
}

TEST(BenchUtilDeathTest, HelpListsTheFlagsRead) {
  const Config args = Parse({"--help"});
  (void)Scale(args);
  (void)WriteQuorum(args);
  const std::string help = args.Describe();
  EXPECT_NE(help.find("--scale=1 "), std::string::npos) << help;
  EXPECT_NE(help.find("(0, inf)"), std::string::npos) << help;
  EXPECT_NE(help.find("--write-quorum "), std::string::npos) << help;
  EXPECT_EXIT(CheckArgs(args), testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dmap::bench
