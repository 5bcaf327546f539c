#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dmap::bench {
namespace {

BenchOptions Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseBenchArgs(int(argv.size()), argv.data());
}

TEST(BenchUtilTest, ParsesWellFormedArguments) {
  const BenchOptions options =
      Parse({"--scale=0.05", "--threads", "4", "--anti-entropy=2147483647",
             "--fault-seed", "18446744073709551615"});
  EXPECT_EQ(options.scale, 0.05);
  EXPECT_EQ(options.threads, 4u);
  EXPECT_EQ(options.anti_entropy, 2147483647);
  EXPECT_EQ(options.fault_seed, 18446744073709551615ULL);
}

TEST(BenchUtilTest, AcceptsTheSimConfigMaxima) {
  const BenchOptions options = Parse({"--threads=4096", "--shards", "256"});
  EXPECT_EQ(options.threads, SimConfig::kMaxThreads);
  EXPECT_EQ(options.shards, SimConfig::kMaxShards);
}

TEST(BenchUtilDeathTest, RejectsThreadsAndShardsBeyondSimConfigMaxima) {
  EXPECT_EXIT((void)Parse({"--threads=4097"}), testing::ExitedWithCode(2),
              "bad --threads");
  EXPECT_EXIT((void)Parse({"--shards=257"}), testing::ExitedWithCode(2),
              "bad --shards");
}

TEST(BenchUtilDeathTest, RejectsMalformedScale) {
  // NaN slips past a plain `<= 0` check into Scaled()'s integer cast.
  for (const char* bad : {"nan", "inf", "-inf", "0.5abc", "0", "-1", ""}) {
    EXPECT_EXIT((void)Parse({std::string("--scale=") + bad}),
                testing::ExitedWithCode(2), "bad --scale")
        << bad;
  }
}

TEST(BenchUtilDeathTest, RejectsAntiEntropyBeyondInt) {
  // 2^32 + 1 must not narrow to a budget of 1.
  for (const char* bad : {"4294967297", "2147483648", "-1"}) {
    EXPECT_EXIT((void)Parse({"--anti-entropy", bad}),
                testing::ExitedWithCode(2), "bad --anti-entropy")
        << bad;
  }
}

TEST(BenchUtilDeathTest, RejectsNegativeOrOverflowingFaultSeed) {
  // strtoull alone wraps "-1" to 2^64 - 1 and saturates past it.
  for (const char* bad : {"-1", " -1", "18446744073709551616", "7x", ""}) {
    EXPECT_EXIT((void)Parse({std::string("--fault-seed=") + bad}),
                testing::ExitedWithCode(2), "bad --fault-seed")
        << bad;
  }
}

}  // namespace
}  // namespace dmap::bench
