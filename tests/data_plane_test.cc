// Tests for the zero-copy composition data plane: BufferSlice bounds
// enforcement, hostile/truncated wire input, slice lifetime (payloads keep
// their backing buffer alive), string payloads shared by copies, the
// one-materialization-per-binding fan-out invariant, and scrub-no-leak for
// pooled contexts whose outputs were read back by reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/base/buffer.h"
#include "src/func/data.h"
#include "src/func/function.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/platform.h"

namespace dandelion {
namespace {

using dbase::Buffer;
using dbase::BufferSlice;
using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

// ------------------------------------------------------------- BufferSlice

TEST(BufferSliceTest, MakeRejectsOutOfRange) {
  auto buffer = Buffer::FromString("0123456789");
  EXPECT_TRUE(BufferSlice::Make(buffer, 0, 10).ok());
  EXPECT_TRUE(BufferSlice::Make(buffer, 10, 0).ok());  // Empty tail slice.
  auto past_end = BufferSlice::Make(buffer, 8, 3);
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), dbase::StatusCode::kInvalidArgument);
  // Offset+size overflow must not wrap around into "in bounds".
  EXPECT_FALSE(BufferSlice::Make(buffer, 1, static_cast<size_t>(-1)).ok());
  EXPECT_FALSE(BufferSlice::Make(nullptr, 0, 1).ok());
}

TEST(BufferSliceTest, SubsliceIsRelativeAndChecked) {
  auto buffer = Buffer::FromString("abcdefgh");
  auto outer = BufferSlice::Make(buffer, 2, 4);  // "cdef"
  ASSERT_TRUE(outer.ok());
  auto inner = outer->Subslice(1, 2);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->view(), "de");
  EXPECT_EQ(inner->offset(), 3u);  // Absolute offset into the base buffer.
  // A subslice may not escape its parent's window even though the base
  // buffer has room.
  EXPECT_FALSE(outer->Subslice(2, 3).ok());
  EXPECT_FALSE(outer->Subslice(5, 0).ok());
}

TEST(BufferSliceTest, SliceOutlivesOriginalBufferHandle) {
  BufferSlice slice;
  {
    auto buffer = Buffer::FromString(std::string(1024, 'z') + "payload");
    slice = BufferSlice::Make(buffer, 1024, 7).value();
  }  // Last named handle gone; the slice's refcount keeps the bytes alive.
  EXPECT_EQ(slice.view(), "payload");
}

// ------------------------------------------------------------ Wire parsing

DataSetList TwoSets() {
  DataSetList sets;
  sets.push_back(DataSet{"alpha", {DataItem{"k1", "hello"}, DataItem{"", "world"}}});
  sets.push_back(DataSet{"beta", {DataItem{"", std::string(300, 'b')}}});
  return sets;
}

TEST(WireFormatTest, TruncatedInputIsAnErrorNotACrash) {
  const std::string wire = dfunc::MarshalSets(TwoSets());
  // Every proper prefix must fail cleanly on both unmarshal paths.
  for (size_t len : {size_t{0}, size_t{3}, size_t{7}, wire.size() / 2, wire.size() - 1}) {
    std::string truncated = wire.substr(0, len);
    auto copied = dfunc::UnmarshalSets(std::string_view(truncated));
    EXPECT_FALSE(copied.ok()) << "prefix " << len;
    EXPECT_EQ(copied.status().code(), dbase::StatusCode::kInvalidArgument);

    auto slice = BufferSlice(Buffer::FromString(std::move(truncated)));
    auto aliased = dfunc::UnmarshalSets(slice);
    EXPECT_FALSE(aliased.ok()) << "prefix " << len;
    EXPECT_EQ(aliased.status().code(), dbase::StatusCode::kInvalidArgument);
  }
}

TEST(WireFormatTest, HostileLengthFieldIsRejected) {
  DataSetList sets;
  sets.push_back(DataSet{"s", {DataItem{"", "0123456789"}}});
  std::string wire = dfunc::MarshalSets(sets);
  // The item payload length is the last u64 before the payload bytes.
  // Inflate it so it claims more bytes than the buffer holds.
  const size_t len_offset = wire.size() - 10 - 8;
  wire[len_offset] = '\xff';
  wire[len_offset + 1] = '\xff';
  auto copied = dfunc::UnmarshalSets(std::string_view(wire));
  EXPECT_FALSE(copied.ok());
  auto aliased = dfunc::UnmarshalSets(BufferSlice(Buffer::FromString(wire)));
  EXPECT_FALSE(aliased.ok());
  EXPECT_EQ(aliased.status().code(), dbase::StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, TrailingBytesAreRejected) {
  std::string wire = dfunc::MarshalSets(TwoSets()) + "extra";
  EXPECT_FALSE(dfunc::UnmarshalSets(std::string_view(wire)).ok());
  EXPECT_FALSE(dfunc::UnmarshalSets(BufferSlice(Buffer::FromString(wire))).ok());
}

TEST(WireFormatTest, AliasingUnmarshalSharesTheRequestBuffer) {
  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  auto buffer = Buffer::FromString(dfunc::MarshalSets(TwoSets()));
  DataSetList sets;
  {
    auto result = dfunc::UnmarshalSets(BufferSlice(buffer));
    ASSERT_TRUE(result.ok());
    sets = std::move(result).value();
  }
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].items[0].data, "hello");
  EXPECT_EQ(sets[1].items[0].data, std::string(300, 'b'));
  // Payloads alias the wire buffer: same underlying base, no copies.
  EXPECT_EQ(sets[0].items[0].data.slice().buffer().get(), buffer.get());
  const auto after = dfunc::DataPlaneStats::Get().snapshot();
  EXPECT_GE(after.bytes_aliased - before.bytes_aliased, 310u);

  // Dropping our handle leaves the sets as the only owners; reads stay valid.
  const char* payload_ptr = sets[1].items[0].data.data();
  buffer.reset();
  EXPECT_EQ(std::string_view(payload_ptr, 300), std::string(300, 'b'));
}

TEST(WireFormatTest, ScatterChunksConcatenateToMarshalSets) {
  DataSetList sets = TwoSets();
  // Add a payload large enough to be emitted as an external chunk.
  sets[0].items.push_back(DataItem{"big", std::string(4096, 'q')});
  const std::string expected = dfunc::MarshalSets(sets);
  auto chunks = dfunc::MarshalSetsScatter(sets);
  std::string gathered;
  for (const auto& chunk : chunks) {
    gathered.append(chunk.view());
  }
  EXPECT_EQ(gathered, expected);
  EXPECT_GT(chunks.size(), 1u);  // The 4 KiB payload rode along by reference.
}

// ----------------------------------------------------------------- Payload

TEST(PayloadTest, CopiesOfAStringPayloadShareItsBytes) {
  std::string bytes(2048, 'p');
  const char* storage = bytes.data();
  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  dfunc::Payload payload{std::move(bytes)};
  dfunc::Payload copy = payload;
  // The payload adopted the string's storage, and the copy is a refcount
  // bump on the same buffer: no memcpy anywhere.
  EXPECT_EQ(payload.data(), storage);
  EXPECT_EQ(copy.data(), storage);
  EXPECT_EQ(copy.slice().buffer().get(), payload.slice().buffer().get());
  EXPECT_EQ(copy, std::string(2048, 'p'));
  EXPECT_EQ(dfunc::DataPlaneStats::Get().snapshot().bytes_copied - before.bytes_copied, 0u);
}

// ------------------------------------------------- Fan-out sharing invariant

dbase::Status TagWithContext(dfunc::FunctionCtx& ctx) {
  const DataSet* piece = ctx.input_set("piece");
  const DataSet* shared = ctx.input_set("ctx");
  if (piece == nullptr || shared == nullptr) {
    return dbase::NotFound("missing input set");
  }
  std::string joined;
  for (const auto& item : piece->items) {
    joined += item.data;
  }
  ctx.EmitOutput("tagged", "[" + joined + ":" + std::to_string(shared->items.size()) + "]");
  return dbase::OkStatus();
}

dbase::Status SplitBytes(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string payload, ctx.SingleInput("in"));
  for (char c : payload) {
    ctx.EmitOutput("parts", std::string(1, c), std::string(1, c));
  }
  return dbase::OkStatus();
}

// An `each` fan-out of N instances with an `all` side input must
// materialize each non-fanout binding once — not once per instance — and
// account the (N-1) extra references as aliased, not copied bytes.
TEST(FanOutSharingTest, OneMaterializationPerBindingNotPerInstance) {
  PlatformConfig config;
  config.num_workers = 4;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  Platform platform(config);
  ASSERT_TRUE(platform.RegisterFunction({.name = "split", .body = SplitBytes}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "tagctx", .body = TagWithContext}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Fan(in) => out {
  split(in = all in) => (pieces = parts);
  tagctx(piece = each pieces, ctx = all in) => (out = tagged);
}
)")
                  .ok());

  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  DataSetList args;
  args.push_back(DataSet{"in", {DataItem{"", "abcdefgh"}}});  // N = 8 instances.
  auto result = platform.Invoke({"Fan", std::move(args)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)[0].items.size(), 8u);
  EXPECT_EQ((*result)[0].items[0].data, "[a:1]");
  const auto after = dfunc::DataPlaneStats::Get().snapshot();

  // Two non-fanout bindings ran: split's `in = all in` and tagctx's
  // `ctx = all in`. The 8-instance fan-out itself adds zero.
  EXPECT_EQ(after.binding_materializations - before.binding_materializations, 2u);
  // The shared `ctx` set was referenced by 7 extra instances by refcount.
  EXPECT_GT(after.bytes_aliased, before.bytes_aliased);
}

// ----------------------------------------------------------- Alias safety

// Aliased output read-back pins the context through the keep-alive token:
// the region stays mapped until the last slice dies, and the next context
// of its capacity reads zeros, never the stale payload.
TEST(ScrubTest, AliasedReadbackPinsTheContextUntilItsLastSlice) {
  constexpr uint64_t kCapacity = (1 << 20) + 7 * 4096;
  const std::string marker(MemoryContext::kAliasReadbackMinBytes, 'L');

  DataSetList outputs;
  {
    auto created = MemoryContext::Create(kCapacity, nullptr);
    ASSERT_TRUE(created.ok());
    std::shared_ptr<MemoryContext> ctx = std::move(created).value();
    DataSetList produced;
    produced.push_back(DataSet{"out", {DataItem{"", marker}}});
    ASSERT_TRUE(ctx->StoreOutcome(dbase::OkStatus(), produced).ok());

    auto loaded = ctx->LoadOutputSetsAliased(ctx);
    ASSERT_TRUE(loaded.ok());
    outputs = std::move(loaded).value();
    // The payload really points into the context region (zero-copy).
    ASSERT_TRUE(ctx->Contains(outputs[0].items[0].data.data()));
  }  // `ctx` handle dropped — but the aliased outputs still pin the region.

  EXPECT_EQ(outputs[0].items[0].data, marker);

  // Releasing the last reference unmaps the region.
  outputs.clear();
  auto reused = MemoryContext::Create(kCapacity, nullptr);
  ASSERT_TRUE(reused.ok());
  auto view = (*reused)->ReadAt(0, MemoryContext::kAliasReadbackMinBytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->find_first_not_of('\0'), std::string_view::npos);
}

// Small outputs fall back to the copying path: pinning a whole context's
// committed pages for a few bytes would hold them hostage.
TEST(ScrubTest, TinyOutputsAreCopiedNotAliased) {
  auto created = MemoryContext::Create(1 << 16, nullptr);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<MemoryContext> ctx = std::move(created).value();
  DataSetList produced;
  produced.push_back(DataSet{"out", {DataItem{"", "tiny"}}});
  ASSERT_TRUE(ctx->StoreOutcome(dbase::OkStatus(), produced).ok());
  auto loaded = ctx->LoadOutputSetsAliased(ctx);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(ctx->Contains((*loaded)[0].items[0].data.data()));
}

}  // namespace
}  // namespace dandelion
