#include "src/net/wire.h"

#include <cstring>
#include <utility>

namespace dnet {
namespace {

// Little-endian primitive writers/readers. The reader side is a cursor over
// a BufferSlice that fails (instead of clamping) on truncation — the same
// contract as BufferSlice::Make, so hostile length fields surface as
// kInvalidArgument, never as short reads.
void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Cursor {
 public:
  explicit Cursor(const dbase::BufferSlice& slice) : slice_(slice) {}

  size_t remaining() const { return slice_.size() - offset_; }
  size_t offset() const { return offset_; }

  dbase::Status ReadU8(uint8_t* out) { return ReadLe(out, 1); }
  dbase::Status ReadU16(uint16_t* out) { return ReadLe(out, 2); }
  dbase::Status ReadU32(uint32_t* out) { return ReadLe(out, 4); }
  dbase::Status ReadU64(uint64_t* out) { return ReadLe(out, 8); }

  dbase::Status ReadString(std::string* out, size_t max_len) {
    uint32_t len = 0;
    RETURN_IF_ERROR(ReadU32(&len));
    if (len > max_len) {
      return dbase::InvalidArgument("wire string length exceeds bound");
    }
    if (remaining() < len) {
      return dbase::InvalidArgument("truncated wire string");
    }
    out->assign(slice_.view().substr(offset_, len));
    offset_ += len;
    return dbase::OkStatus();
  }

  // The rest of the body as a checked subslice (zero-copy handoff to the
  // sets unmarshaller).
  dbase::Result<dbase::BufferSlice> Rest() const {
    return slice_.Subslice(offset_, remaining());
  }

 private:
  template <typename T>
  dbase::Status ReadLe(T* out, size_t bytes) {
    if (remaining() < bytes) {
      return dbase::InvalidArgument("truncated wire integer");
    }
    uint64_t v = 0;
    const char* data = slice_.data() + offset_;
    for (size_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
    }
    offset_ += bytes;
    *out = static_cast<T>(v);
    return dbase::OkStatus();
  }

  const dbase::BufferSlice& slice_;
  size_t offset_ = 0;
};

// Identifier-ish strings on the wire (composition names, node names) are
// bounded well below the frame cap so a corrupt length cannot force a large
// allocation before the mismatch is noticed.
constexpr size_t kMaxNameBytes = 4096;
// Status messages can carry a ToString of a nested failure; bound generous.
constexpr size_t kMaxMessageBytes = 64 * 1024;

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kJoin) &&
         type <= static_cast<uint8_t>(FrameType::kGossip);
}

bool KnownStatusCode(uint32_t code) {
  return code <= static_cast<uint32_t>(dbase::StatusCode::kCancelled);
}

}  // namespace

std::string EncodeFrameHeader(const FrameHeader& header) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  PutU32(&out, kWireMagic);
  out.push_back(static_cast<char>(header.version));
  out.push_back(static_cast<char>(header.type));
  PutU16(&out, header.flags);
  PutU32(&out, header.body_len);
  PutU32(&out, 0);  // Reserved.
  PutU64(&out, header.request_id);
  return out;
}

dbase::Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                             const FrameLimits& limits) {
  if (bytes.size() < kFrameHeaderBytes) {
    return dbase::InvalidArgument("short frame header");
  }
  const auto u8 = [&](size_t i) { return static_cast<unsigned char>(bytes[i]); };
  const uint32_t magic = static_cast<uint32_t>(u8(0)) | (static_cast<uint32_t>(u8(1)) << 8) |
                         (static_cast<uint32_t>(u8(2)) << 16) |
                         (static_cast<uint32_t>(u8(3)) << 24);
  if (magic != kWireMagic) {
    return dbase::InvalidArgument("bad frame magic");
  }
  FrameHeader header;
  header.version = u8(4);
  if (header.version != kWireVersion) {
    return dbase::InvalidArgument("unsupported wire version");
  }
  if (!KnownFrameType(u8(5))) {
    return dbase::InvalidArgument("unknown frame type");
  }
  header.type = static_cast<FrameType>(u8(5));
  header.flags = static_cast<uint16_t>(u8(6)) | (static_cast<uint16_t>(u8(7)) << 8);
  header.body_len = static_cast<uint32_t>(u8(8)) | (static_cast<uint32_t>(u8(9)) << 8) |
                    (static_cast<uint32_t>(u8(10)) << 16) |
                    (static_cast<uint32_t>(u8(11)) << 24);
  const uint32_t reserved = static_cast<uint32_t>(u8(12)) | (static_cast<uint32_t>(u8(13)) << 8) |
                            (static_cast<uint32_t>(u8(14)) << 16) |
                            (static_cast<uint32_t>(u8(15)) << 24);
  if (reserved != 0) {
    return dbase::InvalidArgument("nonzero reserved frame bytes");
  }
  if (header.body_len > limits.max_body_bytes) {
    return dbase::InvalidArgument("frame body exceeds limit");
  }
  uint64_t id = 0;
  for (size_t i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(u8(16 + i)) << (8 * i);
  }
  header.request_id = id;
  return header;
}

// ------------------------------------------------------------------ invoke

std::vector<dbase::BufferSlice> EncodeInvoke(const WireInvoke& invoke) {
  std::string prefix;
  prefix.reserve(32 + invoke.composition.size());
  PutString(&prefix, invoke.composition);
  prefix.push_back(static_cast<char>(invoke.priority));
  PutU64(&prefix, static_cast<uint64_t>(invoke.remaining_deadline_us));
  PutU64(&prefix, invoke.invocation_id);
  std::vector<dbase::BufferSlice> chunks;
  chunks.push_back(dbase::BufferSlice(dbase::Buffer::FromString(std::move(prefix))));
  for (auto& chunk : dfunc::MarshalSetsScatter(invoke.args)) {
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

dbase::Result<WireInvoke> DecodeInvoke(const dbase::BufferSlice& body) {
  Cursor cursor(body);
  WireInvoke invoke;
  RETURN_IF_ERROR(cursor.ReadString(&invoke.composition, kMaxNameBytes));
  RETURN_IF_ERROR(cursor.ReadU8(&invoke.priority));
  uint64_t deadline = 0;
  RETURN_IF_ERROR(cursor.ReadU64(&deadline));
  invoke.remaining_deadline_us = static_cast<dbase::Micros>(deadline);
  RETURN_IF_ERROR(cursor.ReadU64(&invoke.invocation_id));
  ASSIGN_OR_RETURN(dbase::BufferSlice rest, cursor.Rest());
  // Aliasing unmarshal: argument payloads sub-slice the receive buffer.
  ASSIGN_OR_RETURN(invoke.args, dfunc::UnmarshalSets(rest));
  return invoke;
}

// ----------------------------------------------------------------- outcome

std::vector<dbase::BufferSlice> EncodeOutcome(const WireOutcome& outcome) {
  std::string prefix;
  prefix.reserve(24 + outcome.message.size());
  PutU32(&prefix, static_cast<uint32_t>(outcome.code));
  prefix.push_back(static_cast<char>(outcome.failure_kind));
  PutU32(&prefix, outcome.retries_attempted);
  PutString(&prefix, outcome.message);
  std::vector<dbase::BufferSlice> chunks;
  chunks.push_back(dbase::BufferSlice(dbase::Buffer::FromString(std::move(prefix))));
  if (outcome.code == dbase::StatusCode::kOk) {
    for (auto& chunk : dfunc::MarshalSetsScatter(outcome.sets)) {
      chunks.push_back(std::move(chunk));
    }
  }
  return chunks;
}

dbase::Result<WireOutcome> DecodeOutcome(const dbase::BufferSlice& body) {
  Cursor cursor(body);
  WireOutcome outcome;
  uint32_t code = 0;
  RETURN_IF_ERROR(cursor.ReadU32(&code));
  if (!KnownStatusCode(code)) {
    return dbase::InvalidArgument("unknown status code in outcome frame");
  }
  outcome.code = static_cast<dbase::StatusCode>(code);
  RETURN_IF_ERROR(cursor.ReadU8(&outcome.failure_kind));
  RETURN_IF_ERROR(cursor.ReadU32(&outcome.retries_attempted));
  RETURN_IF_ERROR(cursor.ReadString(&outcome.message, kMaxMessageBytes));
  if (outcome.code == dbase::StatusCode::kOk) {
    ASSIGN_OR_RETURN(dbase::BufferSlice rest, cursor.Rest());
    ASSIGN_OR_RETURN(outcome.sets, dfunc::UnmarshalSets(rest));
  } else if (cursor.remaining() != 0) {
    return dbase::InvalidArgument("trailing bytes after error outcome");
  }
  return outcome;
}

// ------------------------------------------------------------------ gossip

std::string EncodeNodeStatus(const WireNodeStatus& status) {
  std::string out;
  PutString(&out, status.node_name);
  PutU64(&out, status.inflight);
  PutU64(&out, status.admission_cap);
  PutU64(&out, status.backlog);
  return out;
}

dbase::Result<WireNodeStatus> DecodeNodeStatus(const dbase::BufferSlice& body) {
  Cursor cursor(body);
  WireNodeStatus status;
  RETURN_IF_ERROR(cursor.ReadString(&status.node_name, kMaxNameBytes));
  RETURN_IF_ERROR(cursor.ReadU64(&status.inflight));
  RETURN_IF_ERROR(cursor.ReadU64(&status.admission_cap));
  RETURN_IF_ERROR(cursor.ReadU64(&status.backlog));
  if (cursor.remaining() != 0) {
    return dbase::InvalidArgument("trailing bytes after gossip body");
  }
  return status;
}

// ------------------------------------------------------------------- join

std::string EncodeJoin(const WireJoin& join) {
  std::string out;
  PutString(&out, join.node_name);
  return out;
}

dbase::Result<WireJoin> DecodeJoin(const dbase::BufferSlice& body) {
  Cursor cursor(body);
  WireJoin join;
  RETURN_IF_ERROR(cursor.ReadString(&join.node_name, kMaxNameBytes));
  if (cursor.remaining() != 0) {
    return dbase::InvalidArgument("trailing bytes after join body");
  }
  return join;
}

}  // namespace dnet
