#include "src/runtime/memory_context.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "src/base/string_util.h"

namespace dandelion {
namespace {

// Zeroes the first `extent` bytes of a context region, the only part that
// was written, leaving it indistinguishable from a fresh mapping. Two
// regimes:
//  - small extents are memset in place: ~0.3 µs for a few pages versus
//    several µs of madvise + demand-zero refaults in the kernel, at the
//    cost of keeping those pages committed while shelved (bounded by
//    kZeroExtentBytes × the pool's max entries ≈ 4 MB platform-wide);
//  - large extents are genuinely uncommitted with MADV_DONTNEED, so
//    committed memory keeps tracking demand (§7.8); on MAP_PRIVATE
//    anonymous memory refaults read fresh zeros.
// Only private regions are scrubbed: a MAP_SHARED context is never reused,
// because MADV_DONTNEED would leave its shmem object's bytes in place.
void ScrubRegion(char* region, uint64_t extent) {
  if (extent == 0) {
    return;
  }
  if (extent <= ContextPool::kZeroExtentBytes) {
    std::memset(region, 0, extent);
    return;
  }
  const uint64_t page = 4096;
  madvise(region, (extent + page - 1) / page * page, MADV_DONTNEED);
}

}  // namespace

void MemoryAccountant::Acquire(uint64_t bytes) {
  const uint64_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  total_acquired_.fetch_add(bytes, std::memory_order_relaxed);
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak && !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryAccountant::Release(uint64_t bytes) {
  current_.fetch_sub(bytes, std::memory_order_relaxed);
}

ContextPool* ContextPool::Get() {
  // Intentionally leaked: contexts may be released during static teardown,
  // after a function-local static pool would already be gone.
  static ContextPool* pool = new ContextPool();
  return pool;
}

char* ContextPool::Take(uint64_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = free_by_capacity_.find(capacity);
  if (it == free_by_capacity_.end() || it->second.empty()) {
    ++stats_.misses;
    return nullptr;
  }
  char* region = it->second.back();
  it->second.pop_back();
  --entries_;
  ++stats_.hits;
  return region;
}

bool ContextPool::Put(char* region, uint64_t capacity, uint64_t touched) {
  // Scrub outside the lock. Scrub-before-reserve wastes one scrub when the
  // pool turns out to be full, but keeps the capacity check and the
  // shelving atomic — a concurrent set_max_entries() shrink cannot
  // interleave with a half-registered entry.
  ScrubRegion(region, std::min(touched, capacity));
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_ >= max_entries_) {
    ++stats_.dropped;
    return false;
  }
  ++entries_;
  ++stats_.recycled;
  free_by_capacity_[capacity].push_back(region);
  return true;
}

ContextPool::Stats ContextPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ContextPool::set_max_entries(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = n;
  // Shrink below the new bound so lowering it (benchmark baselines, tests)
  // takes effect immediately rather than after organic churn.
  for (auto& [capacity, regions] : free_by_capacity_) {
    while (entries_ > max_entries_ && !regions.empty()) {
      munmap(regions.back(), capacity);
      regions.pop_back();
      --entries_;
    }
  }
}

dbase::Result<std::unique_ptr<MemoryContext>> MemoryContext::Create(uint64_t capacity,
                                                                    MemoryAccountant* accountant,
                                                                    bool shared) {
  if (capacity < kHeaderSize) {
    return dbase::InvalidArgument("context capacity below header size");
  }
  char* mem = nullptr;
  if (!shared) {
    mem = ContextPool::Get()->Take(capacity);
  }
  if (mem == nullptr) {
    const int visibility = shared ? MAP_SHARED : MAP_PRIVATE;
    void* fresh = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                       visibility | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (fresh == MAP_FAILED) {
      return dbase::ResourceExhausted(
          dbase::StrFormat("mmap of %llu-byte context failed",
                           static_cast<unsigned long long>(capacity)));
    }
    mem = static_cast<char*>(fresh);
  }
  if (accountant != nullptr) {
    accountant->Acquire(capacity);
  }
  return std::unique_ptr<MemoryContext>(new MemoryContext(mem, capacity, accountant, shared));
}

MemoryContext::~MemoryContext() {
  if (data_ != nullptr) {
    if (shared_ || !ContextPool::Get()->Put(data_, capacity_, touched_)) {
      munmap(data_, capacity_);
    }
    if (accountant_ != nullptr) {
      accountant_->Release(capacity_);
    }
  }
}

dbase::Status MemoryContext::WriteAt(uint64_t offset, std::string_view bytes) {
  if (offset > capacity_ || bytes.size() > capacity_ - offset) {
    return dbase::ResourceExhausted("write exceeds context bounds");
  }
  std::memcpy(data_ + offset, bytes.data(), bytes.size());
  touched_ = std::max(touched_, offset + bytes.size());
  return dbase::OkStatus();
}

dbase::Result<std::string_view> MemoryContext::ReadAt(uint64_t offset, uint64_t size) const {
  if (offset > capacity_ || size > capacity_ - offset) {
    return dbase::InvalidArgument("read exceeds context bounds");
  }
  return std::string_view(data_ + offset, size);
}

dbase::Status MemoryContext::TransferFrom(const MemoryContext& source, uint64_t src_offset,
                                          uint64_t dst_offset, uint64_t size) {
  ASSIGN_OR_RETURN(std::string_view view, source.ReadAt(src_offset, size));
  return WriteAt(dst_offset, view);
}

ContextHeader MemoryContext::ReadHeader() const {
  ContextHeader header;
  std::memcpy(&header.magic, data_, 4);
  std::memcpy(&header.state, data_ + 4, 4);
  std::memcpy(&header.payload_len, data_ + 8, 8);
  return header;
}

void MemoryContext::WriteHeader(const ContextHeader& header) {
  std::memcpy(data_, &header.magic, 4);
  std::memcpy(data_ + 4, &header.state, 4);
  std::memcpy(data_ + 8, &header.payload_len, 8);
  touched_ = std::max(touched_, kHeaderSize);
}

dbase::Status MemoryContext::StoreInputSets(const dfunc::DataSetList& inputs) {
  const uint64_t payload_len = dfunc::MarshalledSize(inputs);
  if (payload_len > capacity_ - kHeaderSize) {
    return dbase::ResourceExhausted(
        dbase::StrFormat("inputs (%zu bytes) exceed context capacity (%llu bytes); raise the "
                         "function's declared memory requirement",
                         static_cast<size_t>(payload_len),
                         static_cast<unsigned long long>(capacity_)));
  }
  ContextHeader header;
  header.state = ContextHeader::kStatePending;
  header.payload_len = payload_len;
  WriteHeader(header);
  // Marshal straight into the region — no intermediate string of the full
  // input size. MarshalledSize was checked against capacity above.
  dfunc::MarshalSetsInto(inputs, data_ + kHeaderSize);
  touched_ = std::max(touched_, kHeaderSize + payload_len);
  return dbase::OkStatus();
}

dbase::Result<dfunc::DataSetList> MemoryContext::LoadInputSets() const {
  const ContextHeader header = ReadHeader();
  if (header.magic != ContextHeader::kMagic) {
    return dbase::Internal("context header corrupted (bad magic)");
  }
  ASSIGN_OR_RETURN(std::string_view payload, ReadAt(kHeaderSize, header.payload_len));
  return dfunc::UnmarshalSets(payload);
}

dbase::Status MemoryContext::StoreOutcome(const dbase::Status& status,
                                          const dfunc::DataSetList& outputs) {
  const auto report_overflow = [&]() -> dbase::Status {
    // Outputs do not fit: report resource exhaustion instead.
    ContextHeader header;
    header.state = static_cast<int32_t>(dbase::StatusCode::kResourceExhausted);
    const char* msg = "outputs exceed context capacity";
    header.payload_len = std::strlen(msg);
    WriteHeader(header);
    return WriteAt(kHeaderSize, msg);
  };
  if (!status.ok()) {
    const std::string& payload = status.message();
    if (payload.size() > capacity_ - kHeaderSize) {
      return report_overflow();
    }
    ContextHeader header;
    header.state = static_cast<int32_t>(status.code());
    header.payload_len = payload.size();
    WriteHeader(header);
    return WriteAt(kHeaderSize, payload);
  }
  const uint64_t payload_len = dfunc::MarshalledSize(outputs);
  if (payload_len > capacity_ - kHeaderSize) {
    return report_overflow();
  }
  // Direct marshal is only safe when no output payload aliases this very
  // region (a pass-through of an input slicing it would be memcpy'd over
  // itself mid-read). Self-aliasing cannot happen today — LoadInputSets
  // copies — but the guard keeps the invariant local instead of relying on
  // a distant caller's behaviour.
  bool self_alias = false;
  for (const auto& set : outputs) {
    for (const auto& item : set.items) {
      if (!item.data.empty() && Contains(item.data.data())) {
        self_alias = true;
        break;
      }
    }
    if (self_alias) break;
  }
  ContextHeader header;
  header.state = static_cast<int32_t>(dbase::StatusCode::kOk);
  header.payload_len = payload_len;
  if (self_alias) {
    const std::string payload = dfunc::MarshalSets(outputs);
    WriteHeader(header);
    return WriteAt(kHeaderSize, payload);
  }
  WriteHeader(header);
  dfunc::MarshalSetsInto(outputs, data_ + kHeaderSize);
  touched_ = std::max(touched_, kHeaderSize + payload_len);
  return dbase::OkStatus();
}

dbase::Result<std::string_view> MemoryContext::OutcomePayload() const {
  // Everything here may have been written by a hostile child: no header
  // field is trusted before it is checked.
  const ContextHeader header = ReadHeader();
  if (header.magic != ContextHeader::kMagic) {
    return dbase::Internal("context header corrupted (bad magic)");
  }
  if (header.state == ContextHeader::kStatePending) {
    return dbase::Internal("function did not produce an outcome (state still pending)");
  }
  if (header.state < 0 || header.state > static_cast<int32_t>(dbase::StatusCode::kCancelled)) {
    return dbase::Internal("context header corrupted (bad state)");
  }
  ASSIGN_OR_RETURN(std::string_view payload, ReadAt(kHeaderSize, header.payload_len));
  const auto code = static_cast<dbase::StatusCode>(header.state);
  if (code != dbase::StatusCode::kOk) {
    return dbase::Status(code, std::string(payload));
  }
  return payload;
}

dbase::Result<dfunc::DataSetList> MemoryContext::LoadOutputSets() const {
  ASSIGN_OR_RETURN(std::string_view payload, OutcomePayload());
  return dfunc::UnmarshalSets(payload);
}

dbase::Result<dfunc::DataSetList> MemoryContext::LoadOutputSetsAliased(
    std::shared_ptr<const void> keepalive) const {
  if (keepalive == nullptr || ReadHeader().payload_len < kAliasReadbackMinBytes) {
    // Small outputs (or error outcomes) are cheaper to copy than to pin a
    // whole context's committed pages for.
    return LoadOutputSets();
  }
  ASSIGN_OR_RETURN(std::string_view payload, OutcomePayload());
  auto buffer = dbase::Buffer::Wrap(payload.data(), payload.size(), std::move(keepalive));
  return dfunc::UnmarshalSets(dbase::BufferSlice(std::move(buffer)));
}

}  // namespace dandelion
