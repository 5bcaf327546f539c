// DMap wire protocol messages. The paper describes five exchanges: GUID
// Insert, GUID Update, GUID Lookup (+ response / "GUID missing"), and the
// GUID migration used by the Section III-D-1 churn repair. This module
// defines the message structs and a compact little-endian binary encoding
// with strict bounds-checked decoding — the format a deployment would put
// on the wire between border gateways.
//
// Layout (all integers little-endian):
//   header:  magic(2) version(1) type(1) request_id(8) src(4) dst(4)
//   payload: per-type fields; GUIDs are 20 bytes big-endian word order;
//            mapping entries are version(8) + writer(4) — the logical
//            stamp — followed by the NA set: count(1) + count *
//            (as(4) locator(4)). Batch payloads are count(2) + count
//            repetitions of the per-entry fields.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/guid.h"
#include "common/ipv4.h"
#include "core/mapping.h"

namespace dmap {

enum class MessageType : std::uint8_t {
  kInsertRequest = 1,   // create/refresh one replica of a mapping
  kInsertAck = 2,
  kLookupRequest = 3,
  kLookupResponse = 4,  // found = false encodes "GUID missing"
  kMigrateRequest = 5,  // "send me your copy of this GUID" (churn repair)
  kMigrateResponse = 6,
  kBatchUpdateRequest = 7,   // v3: coalesced handoff updates for one dst AS
  kBatchUpdateResponse = 8,  // v3: per-entry applied flags
};

struct MessageHeader {
  std::uint64_t request_id = 0;
  AsId src = kInvalidAs;
  AsId dst = kInvalidAs;
};

struct InsertRequest {
  MessageHeader header;
  Guid guid;
  MappingEntry entry;
  // The announced address Algorithm 1 hashed this replica to (0.0.0.0 for
  // local replicas); the storing AS indexes by it for withdrawal repair.
  Ipv4Address stored_address;
};

struct InsertAck {
  MessageHeader header;
  Guid guid;
  bool applied = false;  // false = rejected as stale (older version)
};

struct LookupRequest {
  MessageHeader header;
  Guid guid;
};

struct LookupResponse {
  MessageHeader header;
  Guid guid;
  bool found = false;
  MappingEntry entry;  // valid only when found
};

struct MigrateRequest {
  MessageHeader header;
  Guid guid;
};

struct MigrateResponse {
  MessageHeader header;
  Guid guid;
  bool found = false;
  MappingEntry entry;  // valid only when found
};

// One stamped replica write inside a batch: the same triple an
// InsertRequest carries, minus the per-message header amortised across the
// whole batch.
struct BatchUpdateEntry {
  Guid guid;
  MappingEntry entry;
  Ipv4Address stored_address;
};

// A migrating host's handoff coalesced per destination AS: every GUID
// update whose replica hashes to `header.dst` rides in one message instead
// of K·N InsertRequest singletons. Entries are applied independently under
// the LogicalStamp idempotence rules (a stale entry is rejected without
// affecting its batch-mates), so a batch is bit-identical in outcome to
// the equivalent sequence of InsertRequests.
struct BatchUpdateRequest {
  MessageHeader header;
  std::vector<BatchUpdateEntry> entries;
};

struct BatchUpdateResponse {
  MessageHeader header;
  std::vector<Guid> guids;          // same order as the request entries
  std::vector<std::uint8_t> applied;  // 1 = upserted, 0 = rejected stale
};

using Message =
    std::variant<InsertRequest, InsertAck, LookupRequest, LookupResponse,
                 MigrateRequest, MigrateResponse, BatchUpdateRequest,
                 BatchUpdateResponse>;

MessageType TypeOf(const Message& message);
const MessageHeader& HeaderOf(const Message& message);
MessageHeader& MutableHeaderOf(Message& message);

// Batch counts ride a u16; a larger batch must be split by the sender.
inline constexpr std::size_t kMaxBatchEntries = 0xFFFF;

// Serialises to the wire format into `out`, replacing its contents. The
// buffer is reserved to EncodedSize first, so a reused buffer that has
// grown to the message's size encodes without allocating. Throws
// std::length_error for a batch of more than kMaxBatchEntries entries.
void EncodeInto(const Message& message, std::vector<std::uint8_t>& out);

// Serialises to the wire format (EncodeInto into a fresh vector).
std::vector<std::uint8_t> Encode(const Message& message);

// Parses one message; nullopt on any malformation (bad magic/version/type,
// truncation, trailing bytes, NA count out of range).
std::optional<Message> Decode(std::span<const std::uint8_t> bytes);

// Wire size in bytes (exactly what Encode produces), from the message's
// field counts alone.
std::size_t EncodedSize(const Message& message);

}  // namespace dmap
