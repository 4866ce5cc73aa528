#include "src/func/data.h"

#include <algorithm>
#include <cstring>

namespace dfunc {
namespace {

constexpr uint32_t kMagic = 0x444C4E31;  // "DLN1"

// Payloads at or below this size are copied into the scatter frame buffer
// instead of emitted as standalone slices: one small memcpy beats an extra
// iovec entry (and beats pinning a large backing buffer for a few bytes).
constexpr size_t kScatterInlineBytes = 1024;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffff));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob);
}

// Raw-pointer variants for marshalling straight into a pre-sized region
// (a memory context) without an intermediate string.
char* PutU32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xff);
  dst[1] = static_cast<char>((v >> 8) & 0xff);
  dst[2] = static_cast<char>((v >> 16) & 0xff);
  dst[3] = static_cast<char>((v >> 24) & 0xff);
  return dst + 4;
}

char* PutU64(char* dst, uint64_t v) {
  dst = PutU32(dst, static_cast<uint32_t>(v & 0xffffffff));
  return PutU32(dst, static_cast<uint32_t>(v >> 32));
}

char* PutBlob(char* dst, std::string_view blob) {
  dst = PutU64(dst, blob.size());
  if (!blob.empty()) {
    std::memcpy(dst, blob.data(), blob.size());
  }
  return dst + blob.size();
}

class Reader {
 public:
  explicit Reader(std::string_view buffer) : buffer_(buffer) {}

  dbase::Result<uint32_t> ReadU32() {
    if (buffer_.size() - pos_ < 4) {
      return dbase::InvalidArgument("truncated buffer reading u32");
    }
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(buffer_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 4;
    return v;
  }

  dbase::Result<uint64_t> ReadU64() {
    ASSIGN_OR_RETURN(uint32_t lo, ReadU32());
    ASSIGN_OR_RETURN(uint32_t hi, ReadU32());
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  dbase::Result<std::string_view> ReadBlob() {
    ASSIGN_OR_RETURN(uint64_t size, ReadU64());
    if (buffer_.size() - pos_ < size) {
      return dbase::InvalidArgument("truncated buffer reading blob");
    }
    std::string_view blob = buffer_.substr(pos_, size);
    pos_ += size;
    return blob;
  }

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == buffer_.size(); }

 private:
  std::string_view buffer_;
  size_t pos_ = 0;
};

// Shared walk for both unmarshal flavours. `alias` is null for the copying
// variant; otherwise payloads become sub-slices of it.
dbase::Result<DataSetList> UnmarshalSetsImpl(std::string_view buffer,
                                             const dbase::BufferSlice* alias) {
  auto& stats = DataPlaneStats::Get();
  Reader reader(buffer);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return dbase::InvalidArgument("bad magic in marshalled set list");
  }
  ASSIGN_OR_RETURN(uint32_t set_count, reader.ReadU32());
  DataSetList sets;
  // Reserve no more than the remaining bytes could possibly encode (a set
  // costs at least a name length + item count): a corrupt count field must
  // not be able to force a multi-gigabyte allocation before the truncation
  // check fails the parse.
  sets.reserve(std::min<size_t>(set_count, (buffer.size() - reader.pos()) / 12));
  for (uint32_t s = 0; s < set_count; ++s) {
    DataSet set;
    ASSIGN_OR_RETURN(std::string_view name, reader.ReadBlob());
    set.name = std::string(name);
    ASSIGN_OR_RETURN(uint32_t item_count, reader.ReadU32());
    set.items.reserve(std::min<size_t>(item_count, (buffer.size() - reader.pos()) / 16));
    for (uint32_t i = 0; i < item_count; ++i) {
      DataItem item;
      ASSIGN_OR_RETURN(std::string_view key, reader.ReadBlob());
      item.key = std::string(key);
      ASSIGN_OR_RETURN(std::string_view data, reader.ReadBlob());
      if (alias != nullptr) {
        // The blob Reader just returned ends at the current cursor; its
        // offset within `buffer` is therefore pos() - size. Subslice
        // re-checks bounds against the backing buffer, so a Reader bug
        // cannot mint an out-of-range view.
        ASSIGN_OR_RETURN(dbase::BufferSlice slice,
                         alias->Subslice(reader.pos() - data.size(), data.size()));
        stats.bytes_aliased.fetch_add(data.size(), std::memory_order_relaxed);
        item.data = std::move(slice);
      } else {
        stats.bytes_copied.fetch_add(data.size(), std::memory_order_relaxed);
        item.data = std::string(data);
      }
      set.items.push_back(std::move(item));
    }
    sets.push_back(std::move(set));
  }
  if (!reader.AtEnd()) {
    return dbase::InvalidArgument("trailing bytes after marshalled set list");
  }
  return sets;
}

}  // namespace

DataPlaneStats& DataPlaneStats::Get() {
  static DataPlaneStats stats;
  return stats;
}

uint64_t TotalBytes(const DataSetList& sets) {
  uint64_t total = 0;
  for (const auto& set : sets) {
    total += set.TotalBytes();
  }
  return total;
}

const DataSet* FindSet(const DataSetList& sets, std::string_view name) {
  for (const auto& set : sets) {
    if (set.name == name) {
      return &set;
    }
  }
  return nullptr;
}

DataSet* FindSet(DataSetList& sets, std::string_view name) {
  for (auto& set : sets) {
    if (set.name == name) {
      return &set;
    }
  }
  return nullptr;
}

uint64_t MarshalledSize(const DataSetList& sets) {
  uint64_t total = 8;  // magic + set count
  for (const auto& set : sets) {
    total += 8 + set.name.size() + 4;  // name blob + item count
    for (const auto& item : set.items) {
      total += 8 + item.key.size() + 8 + item.data.size();
    }
  }
  return total;
}

std::string MarshalSets(const DataSetList& sets) {
  std::string out;
  out.reserve(MarshalledSize(sets));
  AppendU32(&out, kMagic);
  AppendU32(&out, static_cast<uint32_t>(sets.size()));
  uint64_t payload_bytes = 0;
  for (const auto& set : sets) {
    AppendBlob(&out, set.name);
    AppendU32(&out, static_cast<uint32_t>(set.items.size()));
    for (const auto& item : set.items) {
      AppendBlob(&out, item.key);
      AppendBlob(&out, item.data.view());
      payload_bytes += item.data.size();
    }
  }
  DataPlaneStats::Get().bytes_copied.fetch_add(payload_bytes, std::memory_order_relaxed);
  return out;
}

uint64_t MarshalSetsInto(const DataSetList& sets, char* dst) {
  char* cursor = dst;
  cursor = PutU32(cursor, kMagic);
  cursor = PutU32(cursor, static_cast<uint32_t>(sets.size()));
  uint64_t payload_bytes = 0;
  for (const auto& set : sets) {
    cursor = PutBlob(cursor, set.name);
    cursor = PutU32(cursor, static_cast<uint32_t>(set.items.size()));
    for (const auto& item : set.items) {
      cursor = PutBlob(cursor, item.key);
      cursor = PutBlob(cursor, item.data.view());
      payload_bytes += item.data.size();
    }
  }
  DataPlaneStats::Get().bytes_copied.fetch_add(payload_bytes, std::memory_order_relaxed);
  return static_cast<uint64_t>(cursor - dst);
}

dbase::Result<DataSetList> UnmarshalSets(std::string_view buffer) {
  return UnmarshalSetsImpl(buffer, nullptr);
}

dbase::Result<DataSetList> UnmarshalSets(const dbase::BufferSlice& buffer) {
  return UnmarshalSetsImpl(buffer.view(), &buffer);
}

std::vector<dbase::BufferSlice> MarshalSetsScatter(const DataSetList& sets) {
  auto& stats = DataPlaneStats::Get();
  // First pass builds all framing (and inlined small payloads) into one
  // owned frame string, recording where each contiguous frame run ends and
  // which external slice follows it. The frame string is only wrapped into
  // an immutable Buffer after it stops growing, so recorded offsets stay
  // valid across reallocations.
  struct Chunk {
    size_t frame_begin = 0;
    size_t frame_size = 0;        // 0 when this chunk is an external slice
    dbase::BufferSlice external;  // empty for frame chunks
  };
  std::string frame;
  std::vector<Chunk> chunks;
  size_t frame_mark = 0;
  auto flush_frame = [&] {
    if (frame.size() > frame_mark) {
      chunks.push_back(Chunk{frame_mark, frame.size() - frame_mark, {}});
      frame_mark = frame.size();
    }
  };
  uint64_t copied = 0;
  uint64_t aliased = 0;
  AppendU32(&frame, kMagic);
  AppendU32(&frame, static_cast<uint32_t>(sets.size()));
  for (const auto& set : sets) {
    AppendBlob(&frame, set.name);
    AppendU32(&frame, static_cast<uint32_t>(set.items.size()));
    for (const auto& item : set.items) {
      AppendBlob(&frame, item.key);
      if (item.data.size() <= kScatterInlineBytes) {
        AppendBlob(&frame, item.data.view());
        copied += item.data.size();
      } else {
        AppendU64(&frame, item.data.size());
        flush_frame();
        chunks.push_back(Chunk{0, 0, item.data.slice()});
        aliased += item.data.size();
      }
    }
  }
  flush_frame();
  stats.bytes_copied.fetch_add(copied, std::memory_order_relaxed);
  stats.bytes_aliased.fetch_add(aliased, std::memory_order_relaxed);

  auto frame_buffer = dbase::Buffer::FromString(std::move(frame));
  std::vector<dbase::BufferSlice> out;
  out.reserve(chunks.size());
  for (auto& chunk : chunks) {
    if (chunk.frame_size == 0) {
      out.push_back(std::move(chunk.external));
    } else {
      // In bounds by construction: the offsets were recorded against the
      // very string the buffer adopted.
      out.push_back(
          dbase::BufferSlice::Make(frame_buffer, chunk.frame_begin, chunk.frame_size).value());
    }
  }
  return out;
}

}  // namespace dfunc
