// Batched-vs-sequential equivalence: the mobility fast path must change
// the wire accounting and the completion model, never the stored mapping
// state. Each suite replays the same handoff schedule through sequential
// singleton updates and through batches of several sizes, then asserts the
// resulting stores are indistinguishable — on the closed-form service and
// the wire-protocol network.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dmap_service.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "workload/mobility.h"

namespace dmap {
namespace {

class BatchUpdateTest : public testing::Test {
 protected:
  BatchUpdateTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  DMapOptions Options() const {
    DMapOptions o;
    o.k = 3;
    o.measure_update_latency = true;
    return o;
  }

  MobilityParams Params(std::uint32_t hosts = 20) const {
    MobilityParams p;
    p.num_hosts = hosts;
    p.guids_per_host = 6;
    p.handoff_rate_hz = 1.0;
    p.horizon_s = 3.0;
    p.seed = 17;
    return p;
  }

  // Canonical store dump: for every workload GUID, the (as, version,
  // attachment) of every AS holding a replica — a full scan over the AS
  // space, so missing and surplus replicas both show up as differences.
  std::vector<std::uint64_t> Dump(const DMapService& service,
                                  const MobilityWorkload& workload) const {
    std::vector<std::uint64_t> out;
    for (std::uint32_t host = 0; host < workload.params().num_hosts; ++host) {
      for (std::uint32_t i = 0; i < workload.params().guids_per_host; ++i) {
        const Guid g = workload.GuidOf(host, i);
        for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
          const MappingEntry* e = service.StoreLookup(as, g);
          if (e == nullptr) continue;
          out.push_back(as);
          out.push_back(e->version);
          out.push_back(e->nas[0].as);
          out.push_back(e->nas[0].locator);
        }
      }
    }
    return out;
  }

  // Replays the workload's handoffs through sequential Update calls and
  // through BatchUpdate at batch sizes 1/4/16/64 on services built with
  // `options` and `failed` marked down. Per-GUID results must match bit
  // for bit (replicas, version, status, latency) and so must the stores.
  // Returns the sequential results.
  std::vector<UpdateResult> ExpectBatchesMatchSequential(
      const DMapOptions& options, const std::vector<AsId>& failed) {
    const MobilityWorkload workload(env_.graph, Params());
    const auto fresh = [&] {
      auto service =
          std::make_unique<DMapService>(env_.graph, env_.table, options);
      service->SetFailedAses(failed);
      for (const InsertOp& op : workload.InitialInserts()) {
        (void)service->Insert(op.guid, op.na);
      }
      return service;
    };

    // Reference leg: singleton Update calls, recording every result.
    const auto sequential = fresh();
    std::vector<UpdateResult> expected;
    for (const Handoff& handoff : workload.Handoffs()) {
      for (const auto& [guid, na] : workload.MovesFor(handoff)) {
        expected.push_back(sequential->Update(guid, na));
      }
    }
    const std::vector<std::uint64_t> want = Dump(*sequential, workload);

    for (const int batch_size : {1, 4, 16, 64}) {
      const auto batched = fresh();
      std::vector<UpdateResult> got;
      std::vector<std::pair<Guid, NetworkAddress>> chunk;
      for (const Handoff& handoff : workload.Handoffs()) {
        const auto moves = workload.MovesFor(handoff);
        for (std::size_t begin = 0; begin < moves.size();
             begin += std::size_t(batch_size)) {
          const std::size_t end =
              std::min(moves.size(), begin + std::size_t(batch_size));
          chunk.assign(moves.begin() + long(begin),
                       moves.begin() + long(end));
          const BatchUpdateResult wave = batched->BatchUpdate(chunk);
          // The wave reports its first non-OK GUID status.
          ResolverStatus status = ResolverStatus::kOk;
          for (std::size_t i = got.size(); i < got.size() + chunk.size();
               ++i) {
            if (status == ResolverStatus::kOk) status = expected[i].status;
          }
          EXPECT_EQ(wave.status, status);
          EXPECT_EQ(wave.guids, int(chunk.size()));
          EXPECT_EQ(wave.entries_applied, wave.entries);
          EXPECT_LE(wave.messages, wave.unbatched_messages);
          got.insert(got.end(), wave.per_guid.begin(), wave.per_guid.end());
        }
      }
      // Per-GUID results identical to the sequential Update stream...
      EXPECT_EQ(got.size(), expected.size()) << "batch " << batch_size;
      for (std::size_t i = 0; i < std::min(got.size(), expected.size());
           ++i) {
        EXPECT_EQ(got[i].replicas, expected[i].replicas);
        EXPECT_EQ(got[i].version, expected[i].version);
        EXPECT_EQ(got[i].status, expected[i].status);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].latency_ms),
                  std::bit_cast<std::uint64_t>(expected[i].latency_ms))
            << "batch " << batch_size << " guid " << i << ": "
            << got[i].latency_ms << " vs " << expected[i].latency_ms;
      }
      // ...and so is the full stored state, replica by replica.
      EXPECT_EQ(Dump(*batched, workload), want) << "batch " << batch_size;
    }
    return expected;
  }

  SimEnvironment env_;
};

TEST_F(BatchUpdateTest, ClosedFormMatchesSequentialForEveryBatchSize) {
  // Default options: W = majority of K + 1, every replica up.
  for (const UpdateResult& r : ExpectBatchesMatchSequential(Options(), {})) {
    EXPECT_EQ(r.status, ResolverStatus::kOk);
  }

  // W = majority with one replica host down: K = 2 and no local replica
  // make W = 2, so every GUID placed on the dead host misses its quorum
  // and reports kQuorumFailed at the stand-in timeout, while the rest
  // complete at their second ack.
  DMapOptions quorum = Options();
  quorum.k = 2;
  quorum.local_replica = false;
  quorum.write_quorum = 0;
  DMapService probe(env_.graph, env_.table, quorum);
  const MobilityWorkload workload(env_.graph, Params());
  std::vector<int> placements(env_.graph.num_nodes(), 0);
  for (const InsertOp& op : workload.InitialInserts()) {
    for (const AsId host : probe.Insert(op.guid, op.na).replicas) {
      ++placements[host];
    }
  }
  const AsId busiest = AsId(
      std::max_element(placements.begin(), placements.end()) -
      placements.begin());
  int failed = 0;
  int ok = 0;
  for (const UpdateResult& r :
       ExpectBatchesMatchSequential(quorum, {busiest})) {
    (r.status == ResolverStatus::kQuorumFailed ? failed : ok) += 1;
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(ok, 0);
}

TEST_F(BatchUpdateTest, BatchAccountingCountsDistinctDestinations) {
  DMapService service(env_.graph, env_.table, Options());
  const AsId dst = 42;
  std::vector<std::pair<Guid, NetworkAddress>> moves;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Guid g = Guid::FromSequence(i);
    (void)service.Insert(g, NetworkAddress{7, 1});
    moves.emplace_back(g, NetworkAddress{dst, std::uint32_t(i)});
  }
  const BatchUpdateResult wave = service.BatchUpdate(moves);
  // One singleton InsertRequest per (guid, replica) is replaced by one
  // BatchUpdateRequest per distinct destination AS.
  EXPECT_EQ(wave.unbatched_messages, 16u * 3u);
  EXPECT_GE(wave.messages, 1u);
  EXPECT_LE(wave.messages, wave.entries);
  EXPECT_LT(wave.messages, wave.unbatched_messages);
  EXPECT_EQ(wave.entries, 16u * 3u);
}

TEST_F(BatchUpdateTest, BatchValidationRejectsBadMoves) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(1);
  (void)service.Insert(g, NetworkAddress{7, 1});
  // Mixed destination ASes: one host hands off to one gateway.
  EXPECT_THROW((void)service.BatchUpdate({{g, NetworkAddress{10, 1}},
                                          {g, NetworkAddress{11, 1}}}),
               std::invalid_argument);
  // Unknown GUID: batches refresh registered mappings only.
  EXPECT_THROW(
      (void)service.BatchUpdate({{Guid::FromSequence(999),
                                  NetworkAddress{10, 1}}}),
      std::invalid_argument);
  // The failed batch must not have half-applied the valid prefix.
  EXPECT_EQ(service.StoreLookup(7, g)->version, 1u);
}

TEST_F(BatchUpdateTest, WireBatchMatchesSequentialInserts) {
  const MobilityWorkload workload(env_.graph, Params(4));

  ProtocolNetworkOptions options;
  options.k = 3;
  ProtocolNetwork sequential(env_.graph, env_.table, options);
  ProtocolNetwork batched(env_.graph, env_.table, options);
  for (const InsertOp& op : workload.InitialInserts()) {
    for (ProtocolNetwork* net : {&sequential, &batched}) {
      net->InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
      net->simulator().Run();
    }
  }

  const std::uint64_t seq_before = sequential.messages_sent();
  const std::uint64_t batch_before = batched.messages_sent();
  for (const Handoff& handoff : workload.Handoffs()) {
    const auto moves = workload.MovesFor(handoff);
    for (const auto& [guid, na] : moves) {
      sequential.InsertAsync(guid, na, [](const UpdateResult&) {});
      sequential.simulator().Run();
    }
    std::optional<BatchUpdateResult> wave;
    batched.BatchUpdateAsync(moves,
                             [&](const BatchUpdateResult& r) { wave = r; });
    batched.simulator().Run();
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->entries_applied, wave->entries);
    EXPECT_GT(wave->latency_ms, 0.0);
  }
  // Fewer wire messages for the same handoffs...
  EXPECT_LT(batched.messages_sent() - batch_before,
            sequential.messages_sent() - seq_before);

  // ...and byte-identical replica stores at every AS.
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    const MappingStore& a = sequential.node(as).store();
    const MappingStore& b = batched.node(as).store();
    ASSERT_EQ(a.size(), b.size()) << "AS " << as;
    a.ForEach([&](const Guid& guid, const MappingEntry& entry) {
      const MappingEntry* other = b.Lookup(guid);
      ASSERT_NE(other, nullptr) << "AS " << as;
      EXPECT_EQ(other->version, entry.version);
      EXPECT_TRUE(other->nas == entry.nas);
    });
  }
}

// A frame counts its entries in a u16, so a destination that receives more
// than 65,535 entries in one wave gets several messages, each on its own
// write slot. Two ASes, with AS 1 announcing the whole address space, put
// every GUID's one global replica on AS 1.
TEST(BatchUpdateSplitTest, OversizedDestinationShareIsSplitAcrossMessages) {
  const std::vector<AsLink> links{{0, 1, 1.0}};
  const AsGraph graph(2, links, {0.5, 0.5}, {1, 1});
  PrefixTable table;
  ASSERT_TRUE(table.Announce(Cidr(Ipv4Address(0x00000000u), 1), 1));
  ASSERT_TRUE(table.Announce(Cidr(Ipv4Address(0x80000000u), 1), 1));
  ProtocolNetworkOptions options;
  options.k = 1;
  ProtocolNetwork net(graph, table, options);

  constexpr std::uint64_t kGuids = kMaxBatchEntries + 4'465;  // 70,000
  std::vector<std::pair<Guid, NetworkAddress>> moves;
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    moves.emplace_back(Guid::FromSequence(i), NetworkAddress{0, 7});
  }
  std::optional<BatchUpdateResult> wave;
  net.BatchUpdateAsync(moves, [&](const BatchUpdateResult& r) { wave = r; });
  net.simulator().Run();

  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->entries, kGuids);
  EXPECT_EQ(wave->entries_applied, kGuids);
  EXPECT_EQ(wave->messages, 2u);
  EXPECT_EQ(net.node(1).store().size(), kGuids);
  for (const auto& [guid, na] : moves) {
    const MappingEntry* entry = net.node(1).store().Lookup(guid);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->nas == NaSet(na));
  }
}

}  // namespace
}  // namespace dmap
