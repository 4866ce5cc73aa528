// Seeded-mutation fuzzing of the sandbox read-back boundary. A kProcess
// child shares its MAP_SHARED memory context with the parent, so a hostile
// function can leave any bytes there: any ContextHeader magic, state and
// payload length, and any payload. The parent's LoadOutputSets and
// LoadOutputSetsAliased, and the UnmarshalSets they end in, must turn every
// such context into a Status — never a crash, an out-of-bounds read, or a
// status code that does not exist. Set-list inputs to UnmarshalSets sit in
// exact-size heap blocks, so an out-of-bounds read is an AddressSanitizer
// finding (ctest -L fuzz runs under ASan+UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/buffer.h"
#include "src/func/data.h"
#include "src/runtime/memory_context.h"
#include "tests/fuzz_util.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

// Room for the large seed below; a page multiple, like any real context.
constexpr uint64_t kCapacity = 192 * 1024;

DataSetList SampleSets() {
  DataSetList sets;
  sets.push_back(DataSet{"out", {DataItem{"k0", "payload zero"}, DataItem{"", ""}}});
  sets.push_back(DataSet{"cfg", {DataItem{"key", std::string(300, 'x')}}});
  sets.push_back(DataSet{"empty", {}});
  return sets;
}

// Big enough that the aliased read-back really aliases instead of copying.
DataSetList LargeSets() {
  return {DataSet{"blob", {DataItem{"", std::string(MemoryContext::kAliasReadbackMinBytes, 'L')}}}};
}

// The bytes a child leaves in its context: ContextHeader, then the payload.
std::string ContextBytes(uint32_t magic, int32_t state, uint64_t payload_len,
                         const std::string& payload) {
  std::string bytes(16, '\0');
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &state, 4);
  std::memcpy(bytes.data() + 8, &payload_len, 8);
  return bytes + payload;
}

std::string OkOutcome(const DataSetList& sets) {
  const std::string payload = dfunc::MarshalSets(sets);
  return ContextBytes(ContextHeader::kMagic, 0, payload.size(), payload);
}

// Any real error code; kOk is not a rejection.
bool IsWellFormedError(const dbase::Status& status) {
  const auto code = static_cast<int>(status.code());
  return code > 0 && code <= static_cast<int>(dbase::StatusCode::kCancelled);
}

// A shared context a test writes the way a child would: raw stores into
// the mapping, bypassing every MemoryContext method.
class HostileContext {
 public:
  HostileContext() {
    auto created = MemoryContext::Create(kCapacity, nullptr, /*shared=*/true);
    EXPECT_TRUE(created.ok());
    context_ = std::move(created).value();
  }

  // Lays `bytes` over the region, clearing what the last write left.
  void Write(std::string_view bytes) {
    std::memset(context_->data(), 0, written_);
    written_ = std::min<size_t>(bytes.size(), kCapacity);
    std::memcpy(context_->data(), bytes.data(), written_);
  }

  dbase::Result<DataSetList> Load(bool aliased) const {
    return aliased ? context_->LoadOutputSetsAliased(context_) : context_->LoadOutputSets();
  }

 private:
  std::shared_ptr<MemoryContext> context_;
  size_t written_ = 0;
};

// Every combination of edge values in the three header fields, over a
// valid payload, through both read-back paths.
TEST(SandboxFuzzTest, HeaderFieldsTakeEveryEdgeValue) {
  HostileContext hostile;
  const std::string payload = dfunc::MarshalSets(LargeSets());
  const uint64_t real = payload.size();
  const uint64_t room = kCapacity - 16;
  const uint32_t magics[] = {ContextHeader::kMagic, 0, ContextHeader::kMagic ^ 1};
  const int32_t states[] = {std::numeric_limits<int32_t>::min(), -2, -1, 0, 1, 8, 12, 13, 255,
                            std::numeric_limits<int32_t>::max()};
  const uint64_t lengths[] = {0,
                              1,
                              real - 1,
                              real,
                              real + 1,
                              MemoryContext::kAliasReadbackMinBytes - 1,
                              room,
                              room + 1,
                              kCapacity,
                              uint64_t{1} << 63,
                              std::numeric_limits<uint64_t>::max() - 15,
                              std::numeric_limits<uint64_t>::max()};
  for (const uint32_t magic : magics) {
    for (const int32_t state : states) {
      for (const uint64_t length : lengths) {
        hostile.Write(ContextBytes(magic, state, length, payload));
        for (const bool aliased : {false, true}) {
          const auto loaded = hostile.Load(aliased);
          const bool valid = magic == ContextHeader::kMagic && state == 0 && length == real;
          if (valid) {
            ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
            EXPECT_EQ(dfunc::MarshalSets(*loaded), payload);
          } else if (!loaded.ok()) {
            ASSERT_TRUE(IsWellFormedError(loaded.status()))
                << "magic " << magic << " state " << state << " length " << length << ": "
                << loaded.status().ToString();
          }
        }
      }
    }
  }
}

// Mutated outcome bytes — header and payload alike — through each
// read-back path. An accepted context must re-marshal to a context that
// reads back the same.
TEST(SandboxFuzzTest, MutatedOutcomeBytes) {
  HostileContext hostile;
  const std::vector<std::string> seeds = {OkOutcome(SampleSets()), OkOutcome(LargeSets()),
                                          OkOutcome({})};
  for (const bool aliased : {false, true}) {
    dfuzz::FuzzDecoder(
        aliased ? "LoadOutputSetsAliased" : "LoadOutputSets",
        aliased ? 0x9FB21C651E98DF25ull : 0xC2B2AE3D27D4EB4Full, seeds,
        [&hostile, aliased](const dbase::BufferSlice& bytes) {
          hostile.Write(bytes.view());
          return hostile.Load(aliased);
        },
        [](const DataSetList& sets) { return OkOutcome(sets); }, &IsWellFormedError);
  }
}

// The set-list decoder both read-back paths end in, on its own, over
// exact-size heap slices (the aliased path's input form).
TEST(SandboxFuzzTest, UnmarshalSetsOverExactSlices) {
  dfuzz::FuzzDecoder(
      "UnmarshalSets", 0x165667B19E3779F9ull,
      {dfunc::MarshalSets(SampleSets()), dfunc::MarshalSets({}),
       dfunc::MarshalSets({DataSet{"one", {DataItem{"k", std::string(5000, 'p')}}}})},
      [](const dbase::BufferSlice& bytes) { return dfunc::UnmarshalSets(bytes); },
      [](const DataSetList& sets) { return dfunc::MarshalSets(sets); });
}

}  // namespace
}  // namespace dandelion
