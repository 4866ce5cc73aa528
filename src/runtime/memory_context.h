// Memory contexts (§5): "a bounded, contiguous memory region with methods to
// read or write at particular offsets and methods to transfer data to other
// contexts." Only an instance that crosses an address space needs one: the
// dispatcher maps a MAP_SHARED context per kProcess instance and marshals
// its inputs in, and the forked child leaves its outcome there. A kThread
// instance (the CHERI stand-in) runs inside its engine's address space and
// maps none: its inputs and outputs are refcounted sets passed by reference,
// and its declared size is charged to the accountant (MemoryCharge) while
// it lives, so the committed-memory metric keeps its meaning.
//
// Contexts are backed by anonymous mmap with MAP_NORESERVE, so the reserved
// virtual size is the user-declared memory requirement while physical pages
// appear on demand — exactly the paper's demand-paging behaviour. A context
// is mapped when created and unmapped when released; no region is reused,
// so no instance can read bytes another left behind.
#ifndef SRC_RUNTIME_MEMORY_CONTEXT_H_
#define SRC_RUNTIME_MEMORY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

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

// Charges `bytes` to an accountant (none when null) for its lifetime: a
// context's capacity, or the declared memory of a thread-backend instance,
// which maps no context.
class MemoryCharge {
 public:
  MemoryCharge(MemoryAccountant* accountant, uint64_t bytes);
  ~MemoryCharge();

  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

 private:
  MemoryAccountant* accountant_;
  uint64_t bytes_;
};

// Context regions are not recycled: every context is unmapped on release,
// and a thread-backend instance maps none. Kept because bench/e2e reads it
// (e2e.cc:253); its counters stay zero.
class ContextPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  static ContextPool* Get() {
    static ContextPool pool;
    return &pool;
  }

  Stats stats() const { return {}; }
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
  // Payload bytes the header+payload protocol can hold in a context of
  // `capacity` bytes. A thread-backend instance maps no context, yet its
  // marshalled inputs and outputs must each fit this bound for its declared
  // size, so under-declared memory fails identically on both backends.
  static uint64_t PayloadCapacity(uint64_t capacity) {
    return capacity > kHeaderSize ? capacity - kHeaderSize : 0;
  }
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
  // context) held until the last slice dies — so the region stays mapped
  // while downstream nodes still read it. Payloads below
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
      : data_(data), capacity_(capacity), shared_(shared), charge_(accountant, capacity) {}

  static constexpr uint64_t kHeaderSize = 16;

  // The payload of a successful outcome, after checking every header field;
  // an error outcome becomes its Status.
  dbase::Result<std::string_view> OutcomePayload() const;

  char* data_ = nullptr;
  uint64_t capacity_ = 0;
  bool shared_ = false;
  MemoryCharge charge_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_MEMORY_CONTEXT_H_
