// Dandelion's data model (§4.1): functions consume and produce *sets* of
// *items*. An edge in a composition names one output set of the producer and
// one input set of the consumer; the `key` distribution keyword groups items
// by the keys producers attach to them.
//
// Item payloads are Payloads, not strings: every payload is one refcounted
// dbase::BufferSlice (of a frontend request body, a producer's
// memory-context region, or an adopted string), and payloads are immutable.
// Copying a payload is a refcount bump, which is what lets an `each`
// fan-out of N instances reference one copy of every non-fanout input set.
#ifndef SRC_FUNC_DATA_H_
#define SRC_FUNC_DATA_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"

namespace dfunc {

// Process-wide counters for the composition data plane. `copied` counts
// payload bytes physically memcpy'd at data-plane seams (marshal into a
// context, copying unmarshal); `aliased` counts payload bytes
// moved by reference instead (aliasing unmarshal, shared fan-out bindings,
// scatter-gather response slices). Framing bytes (magic, counts, lengths,
// keys) are excluded from both so the ratio reflects payload movement.
struct DataPlaneStats {
  std::atomic<uint64_t> bytes_copied{0};
  std::atomic<uint64_t> bytes_aliased{0};
  // Per-binding materializations in BuildInstanceInputs — the fan-out
  // sharing invariant is one per binding, not one per instance.
  std::atomic<uint64_t> binding_materializations{0};

  static DataPlaneStats& Get();

  struct Snapshot {
    uint64_t bytes_copied = 0;
    uint64_t bytes_aliased = 0;
    uint64_t binding_materializations = 0;
  };
  Snapshot snapshot() const {
    return Snapshot{bytes_copied.load(std::memory_order_relaxed),
                    bytes_aliased.load(std::memory_order_relaxed),
                    binding_materializations.load(std::memory_order_relaxed)};
  }
};

// An item's payload: an immutable view of one refcounted BufferSlice.
// A payload built from a std::string adopts the string's storage; one built
// from a string_view or a C string copies the bytes once. Copying a Payload
// never copies bytes.
class Payload {
 public:
  Payload() = default;
  // Implicit on purpose: DataItem{key, data} aggregate initializers and
  // the many call sites that build payloads from strings keep working.
  Payload(std::string bytes) : slice_(Adopt(std::move(bytes))) {}
  Payload(std::string_view bytes) : Payload(std::string(bytes)) {}
  Payload(const char* bytes) : Payload(std::string(bytes)) {}
  Payload(dbase::BufferSlice slice) : slice_(std::move(slice)) {}

  std::string_view view() const { return slice_.view(); }
  operator std::string_view() const { return view(); }
  const char* data() const { return slice_.data(); }
  size_t size() const { return slice_.size(); }
  bool empty() const { return slice_.empty(); }

  std::string ToString() const { return std::string(view()); }

  const dbase::BufferSlice& slice() const { return slice_; }

  friend bool operator==(const Payload& a, const Payload& b) { return a.view() == b.view(); }
  // Heterogeneous comparison against anything string-like. A template (not
  // a string_view overload) so that `payload == "literal"` has exactly one
  // viable candidate — a member taking string_view would tie with the
  // Payload converting constructor and make every comparison ambiguous.
  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, Payload> &&
             std::is_convertible_v<const T&, std::string_view>)
  friend bool operator==(const Payload& a, const T& b) {
    return a.view() == std::string_view(b);
  }

 private:
  static dbase::BufferSlice Adopt(std::string bytes) {
    return bytes.empty() ? dbase::BufferSlice()
                         : dbase::BufferSlice(dbase::Buffer::FromString(std::move(bytes)));
  }

  dbase::BufferSlice slice_;
};

struct DataItem {
  // Grouping key; empty unless the producer set one. "Keys are set by the
  // user when formatting output data and are only used for grouping."
  std::string key;
  Payload data;

  bool operator==(const DataItem& other) const = default;
};

struct DataSet {
  std::string name;
  std::vector<DataItem> items;

  bool operator==(const DataSet& other) const = default;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& item : items) {
      total += item.data.size() + item.key.size();
    }
    return total;
  }
};

// The complete input (or output) of one function instance.
using DataSetList = std::vector<DataSet>;

uint64_t TotalBytes(const DataSetList& sets);

// Finds a set by name; nullptr if absent.
const DataSet* FindSet(const DataSetList& sets, std::string_view name);
DataSet* FindSet(DataSetList& sets, std::string_view name);

// Flat, versioned wire format used to move set lists in and out of memory
// contexts (shared memory for the process backend, guest memory for VMs).
// Layout: magic, set count, then per set: name, item count, per item: key,
// payload. All integers little-endian.
std::string MarshalSets(const DataSetList& sets);

// Exact marshalled size of `sets` — lets callers marshal straight into a
// destination region (a memory context) without an intermediate string.
uint64_t MarshalledSize(const DataSetList& sets);
// Writes the marshalled form into `dst`, which must hold at least
// MarshalledSize(sets) bytes. Returns the bytes written.
uint64_t MarshalSetsInto(const DataSetList& sets, char* dst);

// Copying unmarshal: every key and payload is duplicated out of `buffer`.
dbase::Result<DataSetList> UnmarshalSets(std::string_view buffer);
// Aliasing unmarshal: item payloads are sub-slices of `buffer` — zero
// payload copies, and the underlying Buffer stays alive (refcounted) until
// the last item referencing it is destroyed. Keys and set names are small
// and still copied.
dbase::Result<DataSetList> UnmarshalSets(const dbase::BufferSlice& buffer);

// Scatter marshal for gathered (writev) writes: returns the wire format as
// a chunk sequence instead of one contiguous string. Framing and payloads
// below a small inline threshold are copied into one owned frame buffer;
// larger payloads are emitted as slices of their existing backing buffers
// (no byte copy). Concatenating the chunks yields exactly MarshalSets(sets).
std::vector<dbase::BufferSlice> MarshalSetsScatter(const DataSetList& sets);

}  // namespace dfunc

#endif  // SRC_FUNC_DATA_H_
