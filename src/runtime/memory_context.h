// Memory contexts (§5): "a bounded, contiguous memory region with methods to
// read or write at particular offsets and methods to transfer data to other
// contexts." The dispatcher prepares one per function instance; engines hand
// it to the isolation backend; the accountant tracks platform-wide committed
// bytes (the metric in Figures 1 and 10).
//
// Contexts are backed by anonymous mmap with MAP_NORESERVE, so the reserved
// virtual size is the user-declared memory requirement while physical pages
// appear on demand — exactly the paper's demand-paging behaviour.
//
// Creating and destroying one mmap per instance serializes every invocation
// on the kernel's per-process mmap_lock (~30 µs each, flat across threads —
// the whole node caps near 33k instances/s regardless of cores). Private
// contexts therefore recycle their virtual regions through a bounded
// process-wide ContextPool: on release the touched extent is uncommitted
// with madvise(MADV_DONTNEED) — committed memory still tracks demand and
// the next user reads fresh zero pages, so no state survives between
// instances — while the VMA itself is reused, keeping mmap_lock off the
// hot path. Shared (MAP_SHARED, process-isolation) contexts are not pooled.
#ifndef SRC_RUNTIME_MEMORY_CONTEXT_H_
#define SRC_RUNTIME_MEMORY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/func/data.h"

namespace dandelion {

// Tracks committed context memory across the platform (the metric of
// Figures 1/10). Thread-safe and lock-free.
class MemoryAccountant {
 public:
  MemoryAccountant() = default;

  void Acquire(uint64_t bytes);
  void Release(uint64_t bytes);

  uint64_t current_bytes() const { return current_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t total_acquired() const { return total_acquired_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> total_acquired_{0};
};

// Process-wide recycler of private context regions, keyed by capacity.
// Returned regions have had their touched extent MADV_DONTNEED'd, so a
// reused region is indistinguishable from a fresh mapping (zero pages,
// uncommitted) without paying mmap/munmap under the process mmap_lock.
class ContextPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t recycled = 0;
    uint64_t dropped = 0;
  };

  // Never destroyed (contexts may be released during static teardown).
  static ContextPool* Get();

  // A region of exactly `capacity` bytes, or nullptr on miss.
  char* Take(uint64_t capacity);
  // Uncommits [0, touched) and shelves the region for reuse. Returns false
  // when the pool is full — the caller munmaps as before.
  bool Put(char* region, uint64_t capacity, uint64_t touched);

  Stats stats() const;
  // Bounds the number of shelved regions (virtual address space, plus up
  // to kZeroExtentBytes of committed-but-zeroed pages each). 0 disables
  // pooling.
  void set_max_entries(size_t n);

  // Touched extents up to this size are zeroed in place on release instead
  // of uncommitted — cheaper than re-faulting the pages on reuse, with
  // committed-memory retention bounded by this × max_entries.
  static constexpr uint64_t kZeroExtentBytes = 64 * 1024;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<char*>> free_by_capacity_;
  size_t entries_ = 0;
  size_t max_entries_ = 64;
  Stats stats_;
};

// Wire protocol inside a context, shared with sandboxed children:
//   [u32 magic][i32 state][u64 payload_len][payload...]
// state: kPending before execution; a dbase::StatusCode after. The payload
// is a marshalled DataSetList (inputs before, outputs after) or an error
// message when state != OK.
struct ContextHeader {
  static constexpr uint32_t kMagic = 0x43545831;  // "CTX1"
  static constexpr int32_t kStatePending = -1;

  uint32_t magic = kMagic;
  int32_t state = kStatePending;
  uint64_t payload_len = 0;
};

class MemoryContext {
 public:
  // `shared` selects MAP_SHARED so a forked child's writes are visible to
  // the parent (process isolation backend); otherwise MAP_PRIVATE.
  static dbase::Result<std::unique_ptr<MemoryContext>> Create(uint64_t capacity,
                                                              MemoryAccountant* accountant,
                                                              bool shared = false);
  ~MemoryContext();

  MemoryContext(const MemoryContext&) = delete;
  MemoryContext& operator=(const MemoryContext&) = delete;

  uint64_t capacity() const { return capacity_; }
  // Payload bytes the header+payload protocol can hold. By-reference input
  // handoff still enforces this bound (outputs must marshal back into the
  // context), so under-declared memory fails identically on both paths.
  uint64_t payload_capacity() const { return capacity_ - kHeaderSize; }
  char* data() { return data_; }
  const char* data() const { return data_; }
  bool shared() const { return shared_; }

  dbase::Status WriteAt(uint64_t offset, std::string_view bytes);
  dbase::Result<std::string_view> ReadAt(uint64_t offset, uint64_t size) const;

  // Whether `ptr` points into this context's region — the self-alias guard
  // for direct marshalling (an output slice of this very context must not
  // be memcpy'd over itself).
  bool Contains(const void* ptr) const {
    const char* p = static_cast<const char*>(ptr);
    return p >= data_ && p < data_ + capacity_;
  }

  // Copies a range from another context ("methods to transfer data to other
  // contexts", §5). Ranges must be in bounds on both sides.
  dbase::Status TransferFrom(const MemoryContext& source, uint64_t src_offset,
                             uint64_t dst_offset, uint64_t size);

  // --- Header + marshalled-payload protocol --------------------------------
  // Serializes the sets after the header; fails with RESOURCE_EXHAUSTED when
  // the declared context size is too small (the user under-declared their
  // memory requirement).
  dbase::Status StoreInputSets(const dfunc::DataSetList& inputs);

  // Reads the header+payload the function left behind. Non-OK state becomes
  // that error Status; a header no valid outcome could have written (bad
  // magic, a state that is no StatusCode, a length past the region) is an
  // error Status, never an out-of-bounds read.
  dbase::Result<dfunc::DataSetList> LoadOutputSets() const;

  // Zero-copy variant: output item payloads become slices aliasing this
  // context's memory, with `keepalive` (the owning shared_ptr of this
  // context) held until the last slice dies — so the region is not scrubbed
  // or recycled while downstream nodes still read it. Payloads below
  // kAliasReadbackMinBytes fall back to the copying path: pinning a whole
  // context for a few bytes would hold its committed pages hostage.
  dbase::Result<dfunc::DataSetList> LoadOutputSetsAliased(
      std::shared_ptr<const void> keepalive) const;

  // Minimum marshalled-output size worth aliasing on read-back.
  static constexpr uint64_t kAliasReadbackMinBytes = 64 * 1024;

  // Raw header access, used by sandbox children.
  ContextHeader ReadHeader() const;
  void WriteHeader(const ContextHeader& header);

  // In-place execution protocol used inside sandboxes: read input payload,
  // overwrite with output payload.
  dbase::Result<dfunc::DataSetList> LoadInputSets() const;
  dbase::Status StoreOutcome(const dbase::Status& status, const dfunc::DataSetList& outputs);

 private:
  MemoryContext(char* data, uint64_t capacity, MemoryAccountant* accountant, bool shared)
      : data_(data), capacity_(capacity), accountant_(accountant), shared_(shared) {}

  static constexpr uint64_t kHeaderSize = 16;

  // The payload of a successful outcome, after checking every header field;
  // an error outcome becomes its Status.
  dbase::Result<std::string_view> OutcomePayload() const;

  char* data_ = nullptr;
  uint64_t capacity_ = 0;
  MemoryAccountant* accountant_ = nullptr;
  bool shared_ = false;
  // High-water mark of bytes written through this object; on release only
  // this extent needs uncommitting. Writes that bypass WriteAt (a forked
  // child's stores into a MAP_SHARED region) are invisible here, which is
  // why shared contexts are never pooled.
  uint64_t touched_ = 0;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_MEMORY_CONTEXT_H_
