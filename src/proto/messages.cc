#include "proto/messages.h"

#include <array>
#include <stdexcept>

namespace dmap {
namespace {

constexpr std::uint8_t kMagic0 = 0xD5;
constexpr std::uint8_t kMagic1 = 0xAB;
// v2 added the logical-stamp writer AS to every encoded MappingEntry
// (version u64 + writer u32); v3 added the batch-update message pair
// (types 7/8). Older frames are rejected, not interpreted.
constexpr std::uint8_t kVersion = 3;

// Fixed field widths of the wire format.
constexpr std::size_t kHeaderBytes = 2 + 1 + 1 + 8 + 4 + 4;
constexpr std::size_t kGuidBytes = Guid::kWords * 4;
constexpr std::size_t kNaBytes = 4 + 4;
constexpr std::size_t kBatchCountBytes = 2;

std::size_t EntryBytes(const MappingEntry& entry) {
  return 8 + 4 + 1 + kNaBytes * std::size_t(entry.nas.size());
}

// Appends fields to a buffer reserved to the message's EncodedSize, so no
// append reallocates.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void U8(std::uint8_t v) { out_->push_back(v); }
  void U16(std::uint16_t v) { Le<2>(v); }
  void U32(std::uint32_t v) { Le<4>(v); }
  void U64(std::uint64_t v) { Le<8>(v); }
  void WriteGuid(const Guid& guid) {
    std::array<std::uint8_t, kGuidBytes> bytes{};
    for (int w = 0; w < Guid::kWords; ++w) {
      const std::uint32_t v = guid.word(w);
      // Big-endian within the GUID, matching its textual form.
      for (int i = 0; i < 4; ++i) {
        bytes[std::size_t(4 * w + i)] = std::uint8_t(v >> (24 - 8 * i));
      }
    }
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void WriteEntry(const MappingEntry& entry) {
    U64(entry.version);
    U32(entry.writer);
    U8(std::uint8_t(entry.nas.size()));
    for (const NetworkAddress& na : entry.nas) {
      U32(na.as);
      U32(na.locator);
    }
  }

 private:
  template <int N, typename T>
  void Le(T v) {
    std::array<std::uint8_t, N> bytes{};
    for (int i = 0; i < N; ++i) {
      bytes[std::size_t(i)] = std::uint8_t(v >> (8 * i));
    }
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }

  std::vector<std::uint8_t>* out_;
};

// The u16 count of a batch; a larger batch must be split by the sender.
std::uint16_t BatchCount(std::size_t entries) {
  if (entries > kMaxBatchEntries) {
    throw std::length_error("Encode: batch of more than 65535 entries");
  }
  return std::uint16_t(entries);
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool U8(std::uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U16(std::uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = std::uint16_t(data_[pos_]) |
         std::uint16_t(std::uint16_t(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= std::uint32_t(data_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= std::uint64_t(data_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool ReadGuid(Guid* guid) {
    if (pos_ + Guid::kWords * 4 > data_.size()) return false;
    std::array<std::uint32_t, Guid::kWords> words{};
    for (int w = 0; w < Guid::kWords; ++w) {
      words[std::size_t(w)] = (std::uint32_t(data_[pos_]) << 24) |
                              (std::uint32_t(data_[pos_ + 1]) << 16) |
                              (std::uint32_t(data_[pos_ + 2]) << 8) |
                              std::uint32_t(data_[pos_ + 3]);
      pos_ += 4;
    }
    *guid = Guid(words);
    return true;
  }
  bool ReadEntry(MappingEntry* entry) {
    std::uint8_t count = 0;
    if (!U64(&entry->version) || !U32(&entry->writer) || !U8(&count)) {
      return false;
    }
    if (count > NaSet::kMaxNas) return false;
    entry->nas = NaSet();
    for (int i = 0; i < count; ++i) {
      NetworkAddress na;
      if (!U32(&na.as) || !U32(&na.locator)) return false;
      if (!entry->nas.Add(na)) return false;  // duplicate NA on the wire
    }
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void EncodeHeader(Writer& w, MessageType type, const MessageHeader& header) {
  w.U8(kMagic0);
  w.U8(kMagic1);
  w.U8(kVersion);
  w.U8(std::uint8_t(type));
  w.U64(header.request_id);
  w.U32(header.src);
  w.U32(header.dst);
}

}  // namespace

MessageType TypeOf(const Message& message) {
  return std::visit(
      [](const auto& m) -> MessageType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, InsertRequest>) {
          return MessageType::kInsertRequest;
        } else if constexpr (std::is_same_v<T, InsertAck>) {
          return MessageType::kInsertAck;
        } else if constexpr (std::is_same_v<T, LookupRequest>) {
          return MessageType::kLookupRequest;
        } else if constexpr (std::is_same_v<T, LookupResponse>) {
          return MessageType::kLookupResponse;
        } else if constexpr (std::is_same_v<T, MigrateRequest>) {
          return MessageType::kMigrateRequest;
        } else if constexpr (std::is_same_v<T, MigrateResponse>) {
          return MessageType::kMigrateResponse;
        } else if constexpr (std::is_same_v<T, BatchUpdateRequest>) {
          return MessageType::kBatchUpdateRequest;
        } else {
          return MessageType::kBatchUpdateResponse;
        }
      },
      message);
}

const MessageHeader& HeaderOf(const Message& message) {
  return std::visit(
      [](const auto& m) -> const MessageHeader& { return m.header; },
      message);
}

MessageHeader& MutableHeaderOf(Message& message) {
  return std::visit([](auto& m) -> MessageHeader& { return m.header; },
                    message);
}

void EncodeInto(const Message& message, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(EncodedSize(message));
  Writer w(out);
  EncodeHeader(w, TypeOf(message), HeaderOf(message));
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, InsertRequest>) {
          w.WriteGuid(m.guid);
          w.WriteEntry(m.entry);
          w.U32(m.stored_address.value());
        } else if constexpr (std::is_same_v<T, InsertAck>) {
          w.WriteGuid(m.guid);
          w.U8(m.applied ? 1 : 0);
        } else if constexpr (std::is_same_v<T, LookupRequest>) {
          w.WriteGuid(m.guid);
        } else if constexpr (std::is_same_v<T, LookupResponse>) {
          w.WriteGuid(m.guid);
          w.U8(m.found ? 1 : 0);
          if (m.found) w.WriteEntry(m.entry);
        } else if constexpr (std::is_same_v<T, MigrateRequest>) {
          w.WriteGuid(m.guid);
        } else if constexpr (std::is_same_v<T, MigrateResponse>) {
          w.WriteGuid(m.guid);
          w.U8(m.found ? 1 : 0);
          if (m.found) w.WriteEntry(m.entry);
        } else if constexpr (std::is_same_v<T, BatchUpdateRequest>) {
          w.U16(BatchCount(m.entries.size()));
          for (const BatchUpdateEntry& e : m.entries) {
            w.WriteGuid(e.guid);
            w.WriteEntry(e.entry);
            w.U32(e.stored_address.value());
          }
        } else {  // BatchUpdateResponse
          w.U16(BatchCount(m.guids.size()));
          for (std::size_t i = 0; i < m.guids.size(); ++i) {
            w.WriteGuid(m.guids[i]);
            w.U8(i < m.applied.size() && m.applied[i] ? 1 : 0);
          }
        }
      },
      message);
}

std::vector<std::uint8_t> Encode(const Message& message) {
  std::vector<std::uint8_t> out;
  EncodeInto(message, out);
  return out;
}

std::size_t EncodedSize(const Message& message) {
  return kHeaderBytes +
         std::visit(
             [](const auto& m) -> std::size_t {
               using T = std::decay_t<decltype(m)>;
               if constexpr (std::is_same_v<T, InsertRequest>) {
                 return kGuidBytes + EntryBytes(m.entry) + 4;
               } else if constexpr (std::is_same_v<T, InsertAck>) {
                 return kGuidBytes + 1;
               } else if constexpr (std::is_same_v<T, LookupRequest> ||
                                    std::is_same_v<T, MigrateRequest>) {
                 return kGuidBytes;
               } else if constexpr (std::is_same_v<T, LookupResponse> ||
                                    std::is_same_v<T, MigrateResponse>) {
                 return kGuidBytes + 1 + (m.found ? EntryBytes(m.entry) : 0);
               } else if constexpr (std::is_same_v<T, BatchUpdateRequest>) {
                 std::size_t bytes = kBatchCountBytes;
                 for (const BatchUpdateEntry& e : m.entries) {
                   bytes += kGuidBytes + EntryBytes(e.entry) + 4;
                 }
                 return bytes;
               } else {  // BatchUpdateResponse
                 return kBatchCountBytes + m.guids.size() * (kGuidBytes + 1);
               }
             },
             message);
}

std::optional<Message> Decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  std::uint8_t m0 = 0, m1 = 0, version = 0, type_byte = 0;
  if (!r.U8(&m0) || !r.U8(&m1) || !r.U8(&version) || !r.U8(&type_byte)) {
    return std::nullopt;
  }
  if (m0 != kMagic0 || m1 != kMagic1 || version != kVersion) {
    return std::nullopt;
  }
  MessageHeader header;
  if (!r.U64(&header.request_id) || !r.U32(&header.src) ||
      !r.U32(&header.dst)) {
    return std::nullopt;
  }

  const auto finish = [&r](Message m) -> std::optional<Message> {
    if (!r.AtEnd()) return std::nullopt;  // trailing garbage
    return m;
  };

  switch (MessageType(type_byte)) {
    case MessageType::kInsertRequest: {
      InsertRequest m{header, {}, {}, {}};
      std::uint32_t stored = 0;
      if (!r.ReadGuid(&m.guid) || !r.ReadEntry(&m.entry) || !r.U32(&stored)) {
        return std::nullopt;
      }
      m.stored_address = Ipv4Address(stored);
      return finish(m);
    }
    case MessageType::kInsertAck: {
      InsertAck m{header, {}, false};
      std::uint8_t applied = 0;
      if (!r.ReadGuid(&m.guid) || !r.U8(&applied)) return std::nullopt;
      if (applied > 1) return std::nullopt;
      m.applied = applied == 1;
      return finish(m);
    }
    case MessageType::kLookupRequest: {
      LookupRequest m{header, {}};
      if (!r.ReadGuid(&m.guid)) return std::nullopt;
      return finish(m);
    }
    case MessageType::kLookupResponse: {
      LookupResponse m{header, {}, false, {}};
      std::uint8_t found = 0;
      if (!r.ReadGuid(&m.guid) || !r.U8(&found)) return std::nullopt;
      if (found > 1) return std::nullopt;
      m.found = found == 1;
      if (m.found && !r.ReadEntry(&m.entry)) return std::nullopt;
      return finish(m);
    }
    case MessageType::kMigrateRequest: {
      MigrateRequest m{header, {}};
      if (!r.ReadGuid(&m.guid)) return std::nullopt;
      return finish(m);
    }
    case MessageType::kMigrateResponse: {
      MigrateResponse m{header, {}, false, {}};
      std::uint8_t found = 0;
      if (!r.ReadGuid(&m.guid) || !r.U8(&found)) return std::nullopt;
      if (found > 1) return std::nullopt;
      m.found = found == 1;
      if (m.found && !r.ReadEntry(&m.entry)) return std::nullopt;
      return finish(m);
    }
    case MessageType::kBatchUpdateRequest: {
      BatchUpdateRequest m{header, {}};
      std::uint16_t count = 0;
      if (!r.U16(&count)) return std::nullopt;
      m.entries.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        BatchUpdateEntry e;
        std::uint32_t stored = 0;
        if (!r.ReadGuid(&e.guid) || !r.ReadEntry(&e.entry) ||
            !r.U32(&stored)) {
          return std::nullopt;
        }
        e.stored_address = Ipv4Address(stored);
        m.entries.push_back(e);
      }
      return finish(m);
    }
    case MessageType::kBatchUpdateResponse: {
      BatchUpdateResponse m{header, {}, {}};
      std::uint16_t count = 0;
      if (!r.U16(&count)) return std::nullopt;
      m.guids.reserve(count);
      m.applied.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        Guid guid;
        std::uint8_t applied = 0;
        if (!r.ReadGuid(&guid) || !r.U8(&applied)) return std::nullopt;
        if (applied > 1) return std::nullopt;
        m.guids.push_back(guid);
        m.applied.push_back(applied);
      }
      return finish(m);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace dmap
