#include "topo/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "topo/generator.h"

namespace dmap {
namespace {

TEST(TopologyIoTest, RoundTripPreservesEverything) {
  const AsGraph original =
      GenerateInternetTopology(ScaledTopologyParams(200, 77));
  std::stringstream buffer;
  SaveTopology(original, buffer);
  const AsGraph loaded = LoadTopology(buffer);

  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded.num_links(), original.num_links());
  for (AsId v = 0; v < original.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(loaded.IntraLatencyMs(v), original.IntraLatencyMs(v));
    EXPECT_DOUBLE_EQ(loaded.EndNodeWeight(v), original.EndNodeWeight(v));
  }
  for (std::size_t i = 0; i < original.links().size(); ++i) {
    EXPECT_EQ(loaded.links()[i].a, original.links()[i].a);
    EXPECT_EQ(loaded.links()[i].b, original.links()[i].b);
    EXPECT_DOUBLE_EQ(loaded.links()[i].latency_ms,
                     original.links()[i].latency_ms);
  }
}

TEST(TopologyIoTest, RejectsBadMagic) {
  std::stringstream buffer("not-a-topology\n");
  EXPECT_THROW(LoadTopology(buffer), std::runtime_error);
}

TEST(TopologyIoTest, RejectsTruncatedFile) {
  std::stringstream buffer("dmap-topology v1\nnodes 3\nlinks 1\n");
  EXPECT_THROW(LoadTopology(buffer), std::runtime_error);
}

TEST(TopologyIoTest, RejectsOutOfRangeNodeId) {
  std::stringstream buffer(
      "dmap-topology v1\nnodes 2\nlinks 0\n"
      "node 0 1.0 1.0\nnode 5 1.0 1.0\n");
  EXPECT_THROW(LoadTopology(buffer), std::runtime_error);
}

TEST(TopologyIoTest, RejectsDuplicateNode) {
  std::stringstream buffer(
      "dmap-topology v1\nnodes 2\nlinks 0\n"
      "node 0 1.0 1.0\nnode 0 2.0 2.0\n");
  EXPECT_THROW(LoadTopology(buffer), std::runtime_error);
}

TEST(TopologyIoTest, RejectsBadLinkRecord) {
  std::stringstream buffer(
      "dmap-topology v1\nnodes 2\nlinks 1\n"
      "node 0 1.0 1.0\nnode 1 1.0 1.0\nlink 0\n");
  EXPECT_THROW(LoadTopology(buffer), std::runtime_error);
}

// Header counts past their bounds are rejected at the header line, before
// any vector is sized or reserved from them.
TEST(TopologyIoTest, RejectsOversizedHeaderCounts) {
  const auto expect_header_error = [](const std::string& text,
                                      const std::string& where) {
    std::stringstream buffer(text);
    try {
      (void)LoadTopology(buffer);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  };
  expect_header_error("dmap-topology v1\nnodes 1000001\nlinks 0\n",
                      "line 2: 'nodes' 1000001 exceeds 1000000");
  expect_header_error("dmap-topology v1\nnodes 2\nlinks 8000001\n",
                      "line 3: 'links' 8000001 exceeds 8000000");
  expect_header_error(
      "dmap-topology v1\nnodes 2\nlinks 18446744073709551615\n",
      "line 3: 'links'");
}

TEST(TopologyIoTest, FileRoundTrip) {
  const AsGraph original =
      GenerateInternetTopology(ScaledTopologyParams(100, 3));
  const std::string path = testing::TempDir() + "/topo_io_test.topology";
  SaveTopologyToFile(original, path);
  const AsGraph loaded = LoadTopologyFromFile(path);
  EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.num_links(), original.num_links());
}

TEST(TopologyIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadTopologyFromFile("/nonexistent/path/x.topology"),
               std::runtime_error);
}

}  // namespace
}  // namespace dmap
