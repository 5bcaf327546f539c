#include "core/write_flow.h"

#include <gtest/gtest.h>

namespace dmap {
namespace {

using Verdict = WriteFlow::Verdict;

TEST(WriteQuorumTest, ParticipantsAreTheReplicasPlusTheLocalCopy) {
  EXPECT_EQ(WriteQuorum(0, 3, false), 2);  // majority of 3
  EXPECT_EQ(WriteQuorum(0, 3, true), 3);   // majority of 4
  EXPECT_EQ(WriteQuorum(9, 3, true), 4);   // clamped to the participants
  EXPECT_EQ(WriteQuorum(-2, 3, false), 1);
  EXPECT_EQ(StandInTimeoutMs(200.0, 2.0, 100.0), 200.0);
  EXPECT_EQ(StandInTimeoutMs(200.0, 2.0, 300.0), 450.0);  // 1.5x the RTT
}

// W <= 1: the write completes when the last slot resolves, by an ack or a
// timeout, and reports once.
TEST(WriteFlowTest, FireAndWaitAllCompletesAtTheLastSlot) {
  WriteFlow flow(1, /*local_applied=*/true);
  const std::size_t a = flow.AddSlot(7);
  const std::size_t b = flow.AddSlot(9);
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kPending);
  EXPECT_EQ(flow.Ack(7, true), a);
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kPending);
  EXPECT_TRUE(flow.TimedOut(b));
  EXPECT_FALSE(flow.TimedOut(b));
  EXPECT_TRUE(flow.resolved());
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kCompleted);
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kPending);
}

// W > 1: the W-th applied ack commits early; a duplicate ack resolves
// nothing and counts nothing; a late applied ack of a timed-out slot still
// counts, once.
TEST(WriteFlowTest, QuorumCountsEachSlotOnceLateAcksIncluded) {
  WriteFlow flow(3, /*local_applied=*/true);
  const std::size_t a = flow.AddSlot(7);
  const std::size_t b = flow.AddSlot(9);
  flow.AddSlot(11);
  EXPECT_TRUE(flow.TimedOut(b));
  EXPECT_EQ(flow.Ack(7, true), a);
  EXPECT_EQ(flow.Ack(7, true), WriteFlow::kNone);  // duplicate
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kPending);
  EXPECT_EQ(flow.Ack(9, true), WriteFlow::kNone);  // late, but applied
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kCommitted);
  EXPECT_FALSE(flow.resolved());  // slot 11 still open for its ack
  EXPECT_NE(flow.Ack(11, false), WriteFlow::kNone);
  EXPECT_TRUE(flow.resolved());
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kPending);
}

TEST(WriteFlowTest, QuorumFailsWhenEverySlotResolvesShortOfW) {
  WriteFlow flow(2, /*local_applied=*/false);
  const std::size_t a = flow.AddSlot(7);
  const std::size_t b = flow.AddSlot(7);  // two replicas on one host
  EXPECT_EQ(flow.Ack(7, false), a);       // rejected as stale
  EXPECT_EQ(flow.Ack(7, true), b);
  EXPECT_EQ(flow.Ack(7, true), WriteFlow::kNone);  // slot a's late retry
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kCommitted);

  WriteFlow failed(2, /*local_applied=*/true);
  failed.AddSlot(7);
  EXPECT_TRUE(failed.TimedOut(0));
  EXPECT_EQ(failed.TakeVerdict(), Verdict::kQuorumFailed);
}

// An empty write (nothing to send) completes at once.
TEST(WriteFlowTest, EmptyWriteCompletesAtOnce) {
  WriteFlow flow;
  EXPECT_TRUE(flow.resolved());
  EXPECT_EQ(flow.TakeVerdict(), Verdict::kCompleted);
}

}  // namespace
}  // namespace dmap
