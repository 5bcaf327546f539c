#include "common/config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

namespace dmap {
namespace {

TEST(ConfigTest, ParsesTypedValues) {
  const Config c = Config::ParseString(
      "name = fig4\n"
      "ases = 26424\n"
      "fraction = 0.52\n"
      "local_replica = true\n"
      "ks = 1, 3, 5\n"
      "churn = 0.0, 0.05, 0.10\n");
  EXPECT_EQ(c.GetString("name", ""), "fig4");
  EXPECT_EQ(c.GetInt("ases", 0), 26424);
  EXPECT_DOUBLE_EQ(c.GetDouble("fraction", 0), 0.52);
  EXPECT_TRUE(c.GetBool("local_replica", false));
  EXPECT_EQ(c.GetIntList("ks", {}), (std::vector<std::int64_t>{1, 3, 5}));
  EXPECT_EQ(c.GetDoubleList("churn", {}),
            (std::vector<double>{0.0, 0.05, 0.10}));
}

TEST(ConfigTest, DefaultsWhenAbsent) {
  const Config c = Config::ParseString("present = 1\n");
  EXPECT_EQ(c.GetInt("absent", 42), 42);
  EXPECT_EQ(c.GetString("absent", "x"), "x");
  EXPECT_FALSE(c.GetBool("absent", false));
  EXPECT_EQ(c.GetIntList("absent", {7}), (std::vector<std::int64_t>{7}));
  EXPECT_TRUE(c.Has("present"));
  EXPECT_FALSE(c.Has("absent"));
}

TEST(ConfigTest, CommentsAndWhitespace) {
  const Config c = Config::ParseString(
      "# full-line comment\n"
      "\n"
      "  key  =  value with spaces  # trailing comment\n");
  EXPECT_EQ(c.GetString("key", ""), "value with spaces");
}

TEST(ConfigTest, BooleanSpellings) {
  const Config c = Config::ParseString(
      "a = true\nb = YES\nc = 1\nd = off\ne = False\nf = 0\n");
  EXPECT_TRUE(c.GetBool("a", false));
  EXPECT_TRUE(c.GetBool("b", false));
  EXPECT_TRUE(c.GetBool("c", false));
  EXPECT_FALSE(c.GetBool("d", true));
  EXPECT_FALSE(c.GetBool("e", true));
  EXPECT_FALSE(c.GetBool("f", true));
}

TEST(ConfigTest, ParseErrors) {
  EXPECT_THROW(Config::ParseString("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(Config::ParseString("= value\n"), std::runtime_error);
  EXPECT_THROW(Config::ParseString("a = 1\na = 2\n"), std::runtime_error);
}

TEST(ConfigTest, TypeErrors) {
  const Config c = Config::ParseString(
      "int = notanumber\nfloat = 1.2.3\nbool = maybe\nlist = 1, x\n");
  EXPECT_THROW(c.GetInt("int", 0), std::runtime_error);
  EXPECT_THROW(c.GetDouble("float", 0), std::runtime_error);
  EXPECT_THROW(c.GetBool("bool", false), std::runtime_error);
  EXPECT_THROW(c.GetIntList("list", {}), std::runtime_error);
}

TEST(ConfigTest, RequireThrowsWhenMissing) {
  const Config c = Config::ParseString("a = 1\n");
  EXPECT_EQ(c.RequireString("a"), "1");
  EXPECT_THROW(c.RequireString("b"), std::runtime_error);
}

TEST(ConfigTest, UnusedKeysCatchTypos) {
  const Config c = Config::ParseString("ases = 10\nasse = 20\n");
  EXPECT_EQ(c.GetInt("ases", 0), 10);
  const auto unused = c.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "asse");
}

TEST(ConfigTest, SimConfigBoundsThreads) {
  EXPECT_EQ(SimConfig::FromConfig(Config::ParseString("threads = 4096\n"))
                .threads,
            4096u);
  // 2^32 + 1 would wrap to 1 through the unsigned narrowing.
  for (const char* bad : {"threads = -1\n", "threads = 4097\n",
                          "threads = 4294967297\n"}) {
    EXPECT_THROW(SimConfig::FromConfig(Config::ParseString(bad)),
                 std::runtime_error)
        << bad;
  }
}

TEST(ConfigTest, SimConfigBoundsShards) {
  EXPECT_EQ(SimConfig::Shards(Config::ParseString("shards = 256\n")),
            SimConfig::kMaxShards);
  EXPECT_EQ(SimConfig::Shards(Config::ParseString("")), 0);
  for (const char* bad : {"shards = -1\n", "shards = 257\n"}) {
    EXPECT_THROW(SimConfig::Shards(Config::ParseString(bad)),
                 std::runtime_error)
        << bad;
  }
  // FromConfig leaves the key to the programs that build a sharded store.
  const Config shards_only = Config::ParseString("shards = 4\n");
  (void)SimConfig::FromConfig(shards_only);
  EXPECT_EQ(shards_only.UnusedKeys(), std::vector<std::string>{"shards"});
}

TEST(ConfigTest, BoundedGettersCheckBeforeNarrowing) {
  const Config c = Config::ParseString(
      "wide = 4294967297\nneg = -1\nmax64 = 18446744073709551615\n"
      "over64 = 18446744073709551616\nn = 11\nnan = nan\ninf = inf\n"
      "list = 1, 300\nplus = +7\nsigns = +-7\n");
  // 2^32 + 1 must not narrow to 1.
  EXPECT_THROW(c.GetInt("wide", 0), std::runtime_error);
  EXPECT_EQ(c.GetInt<std::int64_t>("wide", 0), 4294967297);
  // -1 must not wrap to 2^64 - 1.
  EXPECT_THROW(c.GetInt<std::uint64_t>("neg", 0), std::runtime_error);
  EXPECT_EQ(c.GetInt<std::int64_t>("neg", 0), -1);
  EXPECT_EQ(c.GetInt<std::uint64_t>("max64", 0), 18446744073709551615ULL);
  EXPECT_THROW(c.GetInt<std::uint64_t>("over64", 0), std::runtime_error);
  EXPECT_EQ(c.GetInt("plus", 0), 7);
  EXPECT_THROW(c.GetInt("signs", 0), std::runtime_error);
  try {
    c.GetInt("n", 0, 0, 10);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "config: bad 'n' value '11': must be an integer in [0, 10]");
  }
  // NaN and inf fail even the default (finite) bounds.
  EXPECT_THROW(c.GetDouble("nan", 0.0), std::runtime_error);
  EXPECT_THROW(c.GetDouble("inf", 0.0), std::runtime_error);
  EXPECT_THROW(c.GetDouble("n", 0.0, 0.0, 10.0), std::runtime_error);
  EXPECT_THROW(c.GetIntList("list", {}, 1, 256), std::runtime_error);
  EXPECT_EQ(c.GetDoubleList("list", {}), (std::vector<double>{1, 300}));
}

TEST(ConfigTest, FromArgsMapsFlagsToKeys) {
  std::vector<std::string> args = {"bench", "--write-quorum=1", "--scale",
                                   "0.5", "--fault-seed", "-1", "--help"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const Config c = Config::FromArgs(int(argv.size()), argv.data());
  EXPECT_EQ(c.GetInt("write_quorum", 0), 1);
  EXPECT_EQ(c.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(c.GetString("fault_seed", ""), "-1");
  EXPECT_TRUE(c.GetBool("help", false));
  EXPECT_TRUE(c.UnusedKeys().empty());

}

TEST(ConfigDeathTest, FromArgsExitsOnMalformedCommandLines) {
  for (std::vector<std::string> bad :
       {std::vector<std::string>{"bench", "--threads=1", "--threads=1"},
        {"bench", "stray"}, {"bench", "--trace_out=x"}, {"bench", "--"},
        {"bench", "--trace-out="}, {"bench", "--trace-out", ""}}) {
    std::vector<char*> argv;
    for (std::string& arg : bad) argv.push_back(arg.data());
    EXPECT_EXIT(Config::FromArgs(int(argv.size()), argv.data()),
                testing::ExitedWithCode(2), "")
        << bad[1];
  }
  // A command-line Config exits 2 from its getters too.
  std::vector<std::string> args = {"bench", "--threads=x"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const Config c = Config::FromArgs(int(argv.size()), argv.data());
  EXPECT_EXIT(c.GetInt("threads", 0), testing::ExitedWithCode(2),
              "bad --threads value 'x': must be an integer in");
}

TEST(ConfigTest, DescribeListsEachReadAsAValidConfig) {
  const Config empty;
  EXPECT_EQ(empty.GetInt("ases", 8000, 2, 1'000'000), 8000);
  const double horizon = empty.GetDouble("horizon_s", 2.5, Config::kMinPositive,
                                         Config::kMaxFinite);
  EXPECT_EQ(horizon, 2.5);
  EXPECT_EQ(empty.GetDoubleList("churn", {0.0, 0.05}, 0.0, 1.0),
            (std::vector<double>{0.0, 0.05}));
  EXPECT_EQ(empty.GetString("metrics_out", ""), "");
  EXPECT_EQ(empty.FindInt("write_quorum", 0, 256), std::nullopt);
  const std::string listing = empty.Describe();
  EXPECT_NE(listing.find("ases = 8000"), std::string::npos) << listing;
  EXPECT_NE(listing.find("# [2, 1000000]"), std::string::npos) << listing;
  EXPECT_NE(listing.find("# (0, inf)"), std::string::npos) << listing;
  EXPECT_NE(listing.find("# each in [0, 1]"), std::string::npos) << listing;
  // The listing parses back to the defaults; the key with no default is
  // commented out.
  const Config again = Config::ParseString(listing);
  EXPECT_EQ(again.GetInt("ases", 0), 8000);
  EXPECT_EQ(again.GetDouble("horizon_s", 0.0), 2.5);
  EXPECT_EQ(again.GetDoubleList("churn", {}), (std::vector<double>{0.0, 0.05}));
  EXPECT_EQ(again.GetString("metrics_out", "x"), "");
  EXPECT_FALSE(again.Has("write_quorum"));
  EXPECT_TRUE(again.UnusedKeys().empty());
}

TEST(ConfigDeathTest, FinishReadingExitsOnUnreadKeys) {
  const Config c = Config::ParseString("ases = 10\nasse = 20\n");
  EXPECT_EQ(c.GetInt("ases", 0), 10);
  EXPECT_EXIT(c.FinishReading(false), testing::ExitedWithCode(2),
              "unknown config key\\(s\\): 'asse'");
  EXPECT_EXIT(c.FinishReading(true), testing::ExitedWithCode(0), "");
  EXPECT_EQ(c.GetInt("asse", 0), 20);
  c.FinishReading(false);  // every key read: returns
}

TEST(ConfigTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/config_test.conf";
  {
    std::ofstream out(path);
    out << "x = 5\n";
  }
  EXPECT_EQ(Config::ParseFile(path).GetInt("x", 0), 5);
  EXPECT_THROW(Config::ParseFile("/nonexistent/x.conf"), std::runtime_error);
}

}  // namespace
}  // namespace dmap
