#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/environment.h"

namespace dmap {
namespace {

TEST(FaultPlanTest, DefaultPlanIsBenign) {
  FaultPlan plan;
  EXPECT_FALSE(plan.HasMessageFaults());
  EXPECT_NO_THROW(plan.Validate());
  EXPECT_TRUE(plan.crashes.empty());
  EXPECT_TRUE(plan.outages.empty());
}

TEST(FaultPlanTest, ParseStringReadsEveryField) {
  const FaultPlan plan = FaultPlan::ParseString(R"(
    # chaos scenario
    drop_probability      = 0.05
    duplicate_probability = 0.02
    jitter_ms             = 10.0
    crash  = 12:100:500, 44:0:inf
    outage = 7:200:800
  )");
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.duplicate_probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.jitter_ms, 10.0);
  EXPECT_TRUE(plan.HasMessageFaults());

  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].as, 12u);
  EXPECT_EQ(plan.crashes[0].down_at, SimTime::Millis(100.0));
  EXPECT_EQ(plan.crashes[0].up_at, SimTime::Millis(500.0));
  EXPECT_TRUE(plan.crashes[0].wipe_storage);
  EXPECT_EQ(plan.crashes[1].as, 44u);
  EXPECT_EQ(plan.crashes[1].up_at, FailureView::kForever);

  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].as, 7u);
  // Regional outages keep the mapping stores intact.
  EXPECT_FALSE(plan.outages[0].wipe_storage);
}

TEST(FaultPlanTest, ParseFileMatchesParseString) {
  const std::string path = testing::TempDir() + "/fault_plan_test.plan";
  {
    std::ofstream out(path);
    out << "drop_probability = 0.1\ncrash = 3:10:20\n";
  }
  const FaultPlan plan = FaultPlan::ParseFile(path);
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.1);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].as, 3u);
}

TEST(FaultPlanTest, ValidateNamesTheOffendingField) {
  FaultPlan plan;
  plan.drop_probability = 1.5;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.duplicate_probability = -0.1;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.jitter_ms = -1.0;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = FaultPlan{};
  CrashWindow inverted;
  inverted.as = 1;
  inverted.down_at = SimTime::Millis(100.0);
  inverted.up_at = SimTime::Millis(50.0);
  plan.crashes.push_back(inverted);
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
}

TEST(FaultPlanTest, ParseRejectsUnknownKeysNamingThem) {
  // A misspelt key must not quietly run the plan without that fault.
  const std::pair<const char*, const char*> cases[] = {
      {"drop_probabilty = 0.5\n", "'drop_probabilty'"},
      {"drop_probability = 0.1\njiter_ms = 3\n", "'jiter_ms'"},
  };
  for (const auto& [text, key] : cases) {
    try {
      (void)FaultPlan::ParseString(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  const std::string path = testing::TempDir() + "/fault_plan_typo.plan";
  {
    std::ofstream out(path);
    out << "crash = 3:10:20\ncrash_at = 5\n";
  }
  try {
    (void)FaultPlan::ParseFile(path);
    ADD_FAILURE() << "accepted crash_at";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'crash_at' in " + path),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedWindows) {
  EXPECT_THROW(FaultPlan::ParseString("crash = 12:100"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = abc:0:10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = 12:zero:10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = 12:0:soon"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = 12:500:100"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("drop_probability = 2.0"),
               std::invalid_argument);
  // Non-finite times: NaN would reach std::sort and the simulator.
  EXPECT_THROW(FaultPlan::ParseString("crash = 5:nan:100"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = 5:0:nan"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = 5:-inf:100"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = 5:0:infinity"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = 5:1e400:inf"),
               std::invalid_argument);
  // Signed or out-of-range AS ids must not wrap onto a real AS.
  EXPECT_THROW(FaultPlan::ParseString("outage = -4294967295:10:20"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = +5:10:20"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = 4294967296:10:20"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("outage = 4294967295:10:20"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::ParseString("crash = 99999999999999999999999:0:1"),
               std::invalid_argument);
  // The largest valid id and the `inf` keyword still parse.
  const FaultPlan edge = FaultPlan::ParseString("outage = 4294967294:10:inf");
  ASSERT_EQ(edge.outages.size(), 1u);
  EXPECT_EQ(edge.outages[0].as, kInvalidAs - 1);
  EXPECT_EQ(edge.outages[0].up_at, FailureView::kForever);
}

TEST(FaultPlanTest, ParsePartitionReadsWindows) {
  const FaultPlan plan = FaultPlan::ParseString(R"(
    partition = 3|9:100:400, 12|7:0:inf
  )");
  ASSERT_EQ(plan.partitions.size(), 2u);
  EXPECT_EQ(plan.partitions[0].a, 3u);
  EXPECT_EQ(plan.partitions[0].b, 9u);
  EXPECT_EQ(plan.partitions[0].down_at, SimTime::Millis(100.0));
  EXPECT_EQ(plan.partitions[0].up_at, SimTime::Millis(400.0));
  EXPECT_EQ(plan.partitions[1].a, 12u);
  EXPECT_EQ(plan.partitions[1].b, 7u);
  EXPECT_EQ(plan.partitions[1].up_at, FailureView::kForever);
  // A partition alone is schedule state, not a per-message fault.
  EXPECT_FALSE(plan.HasMessageFaults());
}

TEST(FaultPlanTest, ParseRejectsMalformedPartitions) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      FaultPlan::ParseString(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of("partition = 39:100:400")
                .find("expected a|b:down_ms:up_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|9:100").find("expected a|b:down_ms:up_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = x|9:0:10").find("first AS id"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|y:0:10").find("second AS id"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|3:0:10").find("endpoints must differ"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|9:ten:10").find("down_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|9:0:soon").find("up_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|9:nan:10").find("down_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|9:0:nan").find("up_ms"),
            std::string::npos);
  EXPECT_NE(error_of("partition = -1|9:0:10").find("first AS id"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|4294967296:0:10").find("second AS id"),
            std::string::npos);
  EXPECT_NE(error_of("partition = 3|-4294967293:0:10").find("second AS id"),
            std::string::npos);
  // Inverted windows get through the parser but not Validate().
  EXPECT_THROW(FaultPlan::ParseString("partition = 3|9:400:100"),
               std::invalid_argument);
}

TEST(FaultPlanTest, ValidateChecksPartitionEntries) {
  FaultPlan plan;
  PartitionWindow window;
  window.a = 1;
  window.b = 1;
  plan.partitions.push_back(window);
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = FaultPlan{};
  window = PartitionWindow{};
  window.a = 1;  // b stays kInvalidAs
  plan.partitions.push_back(window);
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = FaultPlan{};
  window = PartitionWindow{};
  window.a = 1;
  window.b = 2;
  window.down_at = SimTime::Millis(400.0);
  window.up_at = SimTime::Millis(100.0);
  plan.partitions.push_back(window);
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
}

TEST(FaultPlanTest, CustomerConeTakesLowerDegreeNeighbors) {
  const SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(200, 7));

  // Pick the highest-degree AS: a provider whose cone is its stubs.
  AsId center = 0;
  for (AsId as = 1; as < env.graph.num_nodes(); ++as) {
    if (env.graph.Degree(as) > env.graph.Degree(center)) center = as;
  }
  const std::vector<AsId> cone = CustomerCone(env.graph, center);

  // The cone contains the center, is sorted, and every other member is a
  // strictly lower-degree neighbor of the center.
  EXPECT_TRUE(std::is_sorted(cone.begin(), cone.end()));
  bool saw_center = false;
  for (const AsId member : cone) {
    if (member == center) {
      saw_center = true;
      continue;
    }
    EXPECT_TRUE(env.graph.HasEdge(center, member));
    EXPECT_LT(env.graph.Degree(member), env.graph.Degree(center));
  }
  EXPECT_TRUE(saw_center);

  // A pure stub (degree 1, attached to a higher-degree provider) cones to
  // just itself.
  for (AsId as = 0; as < env.graph.num_nodes(); ++as) {
    if (env.graph.Degree(as) != 1) continue;
    const AsGraph::Neighbor provider = env.graph.Neighbors(as)[0];
    if (env.graph.Degree(provider.id) <= 1) continue;
    EXPECT_EQ(CustomerCone(env.graph, as), std::vector<AsId>{as});
    break;
  }

  EXPECT_THROW(CustomerCone(env.graph, env.graph.num_nodes()),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmap
