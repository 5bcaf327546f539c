#include "proto/messages.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace dmap {
namespace {

MappingEntry MakeEntry(int nas = 2) {
  MappingEntry entry;
  entry.version = 42;
  for (int i = 0; i < nas; ++i) {
    entry.nas.Add(NetworkAddress{AsId(100 + i), std::uint32_t(1000 + i)});
  }
  return entry;
}

template <typename T>
T RoundTrip(const T& message) {
  const std::vector<std::uint8_t> wire = Encode(Message{message});
  const std::optional<Message> decoded = Decode(wire);
  EXPECT_TRUE(decoded.has_value());
  const T* typed = std::get_if<T>(&*decoded);
  EXPECT_NE(typed, nullptr);
  return *typed;
}

TEST(MessagesTest, InsertRequestRoundTrip) {
  InsertRequest m;
  m.header = MessageHeader{0xdeadbeefcafeULL, 7, 9};
  m.guid = Guid::FromSequence(5);
  m.entry = MakeEntry(3);
  const InsertRequest back = RoundTrip(m);
  EXPECT_EQ(back.header.request_id, m.header.request_id);
  EXPECT_EQ(back.header.src, 7u);
  EXPECT_EQ(back.header.dst, 9u);
  EXPECT_EQ(back.guid, m.guid);
  EXPECT_EQ(back.entry, m.entry);
}

TEST(MessagesTest, InsertAckRoundTrip) {
  InsertAck m;
  m.header = MessageHeader{1, 2, 3};
  m.guid = Guid::FromSequence(6);
  m.applied = true;
  const InsertAck back = RoundTrip(m);
  EXPECT_TRUE(back.applied);
  EXPECT_EQ(back.guid, m.guid);
}

TEST(MessagesTest, LookupRequestRoundTrip) {
  LookupRequest m;
  m.header = MessageHeader{11, 22, 33};
  m.guid = Guid::FromSequence(7);
  const LookupRequest back = RoundTrip(m);
  EXPECT_EQ(back.guid, m.guid);
}

TEST(MessagesTest, LookupResponseFoundAndMissing) {
  LookupResponse found;
  found.header = MessageHeader{1, 2, 3};
  found.guid = Guid::FromSequence(8);
  found.found = true;
  found.entry = MakeEntry(1);
  const LookupResponse back = RoundTrip(found);
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.entry, found.entry);

  LookupResponse missing;
  missing.header = MessageHeader{4, 5, 6};
  missing.guid = Guid::FromSequence(9);
  missing.found = false;
  const LookupResponse back2 = RoundTrip(missing);
  EXPECT_FALSE(back2.found);
  // The missing variant must be shorter (no entry payload).
  EXPECT_LT(EncodedSize(Message{missing}), EncodedSize(Message{found}));
}

TEST(MessagesTest, MigrateRoundTrips) {
  MigrateRequest req;
  req.header = MessageHeader{9, 8, 7};
  req.guid = Guid::FromSequence(10);
  EXPECT_EQ(RoundTrip(req).guid, req.guid);

  MigrateResponse resp;
  resp.header = MessageHeader{9, 7, 8};
  resp.guid = Guid::FromSequence(10);
  resp.found = true;
  resp.entry = MakeEntry(5);
  const MigrateResponse back = RoundTrip(resp);
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.entry.nas.size(), 5);
}

TEST(MessagesTest, BatchUpdateRequestRoundTrip) {
  BatchUpdateRequest m;
  m.header = MessageHeader{77, 3, 12};
  for (int i = 0; i < 5; ++i) {
    BatchUpdateEntry e;
    e.guid = Guid::FromSequence(std::uint64_t(100 + i));
    e.entry = MakeEntry(1 + i % NaSet::kMaxNas);
    e.entry.version = std::uint64_t(7 + i);
    e.stored_address = Ipv4Address(std::uint32_t(0x0a000000 + i));
    m.entries.push_back(e);
  }
  const BatchUpdateRequest back = RoundTrip(m);
  ASSERT_EQ(back.entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back.entries[std::size_t(i)].guid, m.entries[std::size_t(i)].guid);
    EXPECT_EQ(back.entries[std::size_t(i)].entry,
              m.entries[std::size_t(i)].entry);
    EXPECT_EQ(back.entries[std::size_t(i)].stored_address.value(),
              m.entries[std::size_t(i)].stored_address.value());
  }
  // The batch amortises the per-message header: 5 entries in one frame
  // must be smaller than 5 singleton InsertRequests.
  std::size_t singleton_total = 0;
  for (const BatchUpdateEntry& e : m.entries) {
    singleton_total += EncodedSize(
        Message{InsertRequest{m.header, e.guid, e.entry, e.stored_address}});
  }
  EXPECT_LT(EncodedSize(Message{m}), singleton_total);
}

TEST(MessagesTest, BatchUpdateResponseRoundTrip) {
  BatchUpdateResponse m;
  m.header = MessageHeader{78, 12, 3};
  for (int i = 0; i < 4; ++i) {
    m.guids.push_back(Guid::FromSequence(std::uint64_t(200 + i)));
    m.applied.push_back(i % 2 == 0 ? 1 : 0);
  }
  const BatchUpdateResponse back = RoundTrip(m);
  ASSERT_EQ(back.guids.size(), 4u);
  ASSERT_EQ(back.applied.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(back.guids[std::size_t(i)], m.guids[std::size_t(i)]);
    EXPECT_EQ(back.applied[std::size_t(i)], m.applied[std::size_t(i)]);
  }
}

TEST(MessagesTest, EmptyBatchRoundTrips) {
  BatchUpdateRequest m;
  m.header = MessageHeader{79, 1, 2};
  EXPECT_TRUE(RoundTrip(m).entries.empty());
}

TEST(MessagesTest, BatchDecodeRejectsTruncationAndNonBooleanFlag) {
  BatchUpdateRequest m;
  m.header = MessageHeader{80, 1, 2};
  BatchUpdateEntry e;
  e.guid = Guid::FromSequence(300);
  e.entry = MakeEntry(2);
  m.entries.push_back(e);
  const std::vector<std::uint8_t> wire = Encode(Message{m});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        Decode(std::span<const std::uint8_t>(wire.data(), len)).has_value())
        << "prefix of length " << len << " decoded";
  }

  BatchUpdateResponse resp;
  resp.header = MessageHeader{81, 2, 1};
  resp.guids.push_back(e.guid);
  resp.applied.push_back(1);
  std::vector<std::uint8_t> resp_wire = Encode(Message{resp});
  resp_wire.back() = 2;  // applied flag must be 0/1
  EXPECT_FALSE(Decode(resp_wire).has_value());
}

TEST(MessagesTest, TypeOfAndHeaderAccessors) {
  Message m = LookupRequest{MessageHeader{1, 2, 3}, Guid::FromSequence(1)};
  EXPECT_EQ(TypeOf(m), MessageType::kLookupRequest);
  EXPECT_EQ(HeaderOf(m).src, 2u);
  MutableHeaderOf(m).dst = 99;
  EXPECT_EQ(HeaderOf(m).dst, 99u);
}

TEST(MessagesTest, DecodeRejectsBadMagicAndVersion) {
  LookupRequest m;
  m.guid = Guid::FromSequence(1);
  std::vector<std::uint8_t> wire = Encode(Message{m});
  auto corrupted = wire;
  corrupted[0] ^= 0xff;
  EXPECT_FALSE(Decode(corrupted).has_value());
  corrupted = wire;
  corrupted[2] = 99;  // version
  EXPECT_FALSE(Decode(corrupted).has_value());
  corrupted = wire;
  corrupted[3] = 0;  // invalid type
  EXPECT_FALSE(Decode(corrupted).has_value());
}

TEST(MessagesTest, DecodeRejectsEveryTruncation) {
  InsertRequest m;
  m.header = MessageHeader{1, 2, 3};
  m.guid = Guid::FromSequence(2);
  m.entry = MakeEntry(4);
  const std::vector<std::uint8_t> wire = Encode(Message{m});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        Decode(std::span<const std::uint8_t>(wire.data(), len)).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(MessagesTest, DecodeRejectsTrailingGarbage) {
  LookupRequest m;
  m.guid = Guid::FromSequence(3);
  std::vector<std::uint8_t> wire = Encode(Message{m});
  wire.push_back(0x00);
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessagesTest, DecodeRejectsOversizedNaCount) {
  InsertRequest m;
  m.header = MessageHeader{1, 2, 3};
  m.guid = Guid::FromSequence(4);
  m.entry = MakeEntry(1);
  std::vector<std::uint8_t> wire = Encode(Message{m});
  // The NA count byte sits right after header(20) + guid(20) + the
  // logical stamp: version(8) + writer(4).
  const std::size_t count_offset = 20 + 20 + 8 + 4;
  ASSERT_LT(count_offset, wire.size());
  wire[count_offset] = 6;  // > kMaxNas
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessagesTest, DecodeRejectsNonBooleanFlags) {
  LookupResponse m;
  m.header = MessageHeader{1, 2, 3};
  m.guid = Guid::FromSequence(5);
  m.found = false;
  std::vector<std::uint8_t> wire = Encode(Message{m});
  wire.back() = 2;  // found flag must be 0/1
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessagesTest, WireSizeMatchesPaperScale) {
  // A full mapping entry on the wire: close to the paper's 352-bit (44
  // byte) entry estimate plus protocol header.
  InsertRequest m;
  m.guid = Guid::FromSequence(6);
  m.entry = MakeEntry(5);
  const std::size_t size = EncodedSize(Message{m});
  // header 20 + guid 20 + version 8 + writer 4 + count 1 + 5 * 8 +
  // stored addr 4 = 97.
  EXPECT_EQ(size, 97u);
}

// EncodedSize is computed from the field counts, not by encoding; it must
// equal the encoder's output for all eight types, including the
// variable-length corners: "GUID missing" replies, empty batches and a
// full NA set.
TEST(MessagesTest, EncodedSizeMatchesEncodeForEveryType) {
  const Guid g = Guid::FromSequence(12);
  const MappingEntry full = MakeEntry(NaSet::kMaxNas);
  const MappingEntry bare = MakeEntry(0);
  const MessageHeader h{77, 1, 2};
  const BatchUpdateEntry e{g, full, Ipv4Address(0x0a000001u)};
  const std::vector<Message> messages = {
      InsertRequest{h, g, full, Ipv4Address(0x0a000001u)},
      InsertRequest{h, g, bare, Ipv4Address(0)},
      InsertAck{h, g, true},
      LookupRequest{h, g},
      LookupResponse{h, g, true, full},
      LookupResponse{h, g, false, {}},
      MigrateRequest{h, g},
      MigrateResponse{h, g, true, full},
      MigrateResponse{h, g, false, {}},
      BatchUpdateRequest{h, {}},
      BatchUpdateRequest{h, {e, e, {g, bare, Ipv4Address(0)}}},
      BatchUpdateResponse{h, {}, {}},
      BatchUpdateResponse{h, {g, g, g}, {1, 0, 1}},
  };
  std::vector<bool> seen(9, false);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(Encode(messages[i]).size(), EncodedSize(messages[i]))
        << "message " << i;
    seen[std::size_t(TypeOf(messages[i]))] = true;
  }
  for (int type = 1; type <= 8; ++type) {
    EXPECT_TRUE(seen[std::size_t(type)]) << "type " << type;
  }
  // header 20 + guid 20 + found 1 + version 8 + writer 4 + count 1 + 5 * 8.
  EXPECT_EQ(EncodedSize(messages[4]), 94u);
  EXPECT_EQ(EncodedSize(messages[5]), 41u);
  EXPECT_EQ(EncodedSize(messages[9]), 22u);  // header + u16 count
}

// A batch's count rides a u16: 65,535 entries round-trip, and a larger
// batch is refused at encoding rather than sent as a frame that no decoder
// accepts.
TEST(MessagesTest, BatchesAboveTheU16CountThrowOnEncode) {
  BatchUpdateRequest request;
  request.header = MessageHeader{5, 1, 2};
  for (std::size_t i = 0; i < kMaxBatchEntries; ++i) {
    request.entries.push_back(BatchUpdateEntry{
        Guid::FromSequence(i), MakeEntry(1), Ipv4Address(std::uint32_t(i))});
  }
  const BatchUpdateRequest back = RoundTrip(request);
  ASSERT_EQ(back.entries.size(), kMaxBatchEntries);
  EXPECT_EQ(back.entries.back().guid, request.entries.back().guid);
  EXPECT_EQ(back.entries.back().stored_address,
            request.entries.back().stored_address);

  BatchUpdateResponse response;
  response.header = MessageHeader{6, 2, 1};
  response.guids.assign(kMaxBatchEntries, Guid::FromSequence(3));
  response.applied.assign(kMaxBatchEntries, 1);
  EXPECT_EQ(RoundTrip(response).guids.size(), kMaxBatchEntries);

  request.entries.push_back(request.entries.front());
  EXPECT_THROW(Encode(Message{request}), std::length_error);
  response.guids.push_back(Guid::FromSequence(4));
  response.applied.push_back(0);
  EXPECT_THROW(Encode(Message{response}), std::length_error);
}

}  // namespace
}  // namespace dmap
