// Refcounted immutable payload buffers and bounds-checked slice views — the
// zero-copy substrate of the composition data plane. A Buffer owns (or
// pins) one base allocation; BufferSlices are offset-tracked subregions of
// it. Every consumer of a slice holds the buffer alive through the shared
// refcount, so a frontend request body survives exactly until the last
// composition node that references it completes, and a memory-context
// region is not recycled while any reader still views its bytes.
//
// Buffers are immutable after construction: a slice never observes a
// mutation, which is what makes handing one region to N fan-out instances
// safe without copies. Code that needs different bytes builds a new
// payload; nothing mutates one in place.
#ifndef SRC_BASE_BUFFER_H_
#define SRC_BASE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/status.h"

namespace dbase {

// One immutable base allocation. Two flavours behind one type:
//  - owning: adopts a std::string's storage (no byte copy on creation);
//  - pinning: views external memory (an mmap'd MemoryContext region, a
//    static blob) and keeps an arbitrary owner token alive so the memory
//    cannot be unmapped or recycled while the buffer exists.
class Buffer {
 public:
  // Adopts `bytes` (moves the string's storage; no copy).
  static std::shared_ptr<const Buffer> FromString(std::string bytes);

  // Copies `bytes` into a fresh owned allocation.
  static std::shared_ptr<const Buffer> Copy(std::string_view bytes);

  // Views `[data, data+size)` without owning it; `owner` is held alive for
  // the buffer's lifetime (pass the shared_ptr that controls the memory's
  // lifetime, e.g. a MemoryContext). A null owner is allowed only when the
  // caller guarantees the memory outlives every slice — scoped, in-sandbox
  // use; nothing long-lived may be built on it.
  static std::shared_ptr<const Buffer> Wrap(const void* data, size_t size,
                                            std::shared_ptr<const void> owner);

  const char* data() const { return data_; }
  size_t size() const { return size_; }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

 private:
  Buffer(std::string storage)
      : storage_(std::move(storage)), data_(storage_.data()), size_(storage_.size()) {}
  Buffer(const void* data, size_t size, std::shared_ptr<const void> owner)
      : owner_(std::move(owner)), data_(static_cast<const char*>(data)), size_(size) {}

  std::string storage_;                  // Owning flavour; empty when pinning.
  std::shared_ptr<const void> owner_;    // Pinning flavour; null when owning.
  const char* data_ = nullptr;
  size_t size_ = 0;
};

// A bounds-checked `[offset, offset+size)` view of a Buffer. Copying a
// slice bumps the refcount; no payload bytes move. The default-constructed
// slice is the canonical empty payload (no buffer, zero length).
class BufferSlice {
 public:
  BufferSlice() = default;

  // Whole-buffer view.
  explicit BufferSlice(std::shared_ptr<const Buffer> buffer)
      : buffer_(std::move(buffer)),
        offset_(0),
        size_(buffer_ != nullptr ? buffer_->size() : 0) {}

  // Checked subregion constructor: fails (instead of clamping silently)
  // when the range falls outside the buffer — a truncated or hostile
  // length field must surface as an error, not as a short read.
  static Result<BufferSlice> Make(std::shared_ptr<const Buffer> buffer, size_t offset,
                                  size_t size);

  // Checked re-slice relative to this view; same error contract as Make.
  Result<BufferSlice> Subslice(size_t offset, size_t size) const;

  std::string_view view() const {
    return buffer_ == nullptr ? std::string_view()
                              : std::string_view(buffer_->data() + offset_, size_);
  }
  const char* data() const { return buffer_ == nullptr ? nullptr : buffer_->data() + offset_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The underlying buffer (null for the empty slice) — used for identity
  // checks ("does this slice alias that region?") and keep-alive audits.
  const std::shared_ptr<const Buffer>& buffer() const { return buffer_; }
  size_t offset() const { return offset_; }

 private:
  BufferSlice(std::shared_ptr<const Buffer> buffer, size_t offset, size_t size)
      : buffer_(std::move(buffer)), offset_(offset), size_(size) {}

  std::shared_ptr<const Buffer> buffer_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace dbase

#endif  // SRC_BASE_BUFFER_H_
