#include "common/config.h"

#include <gtest/gtest.h>

#include <fstream>

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
  EXPECT_EQ(SimConfig::FromConfig(Config::ParseString("shards = 256\n"))
                .shards,
            SimConfig::kMaxShards);
  for (const char* bad : {"shards = -1\n", "shards = 257\n"}) {
    EXPECT_THROW(SimConfig::FromConfig(Config::ParseString(bad)),
                 std::runtime_error)
        << bad;
  }
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
