// Tests for the function ABI: data sets, marshalling (property round-trips),
// the function context, and the built-in compute functions.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/func/builtins.h"
#include "src/func/data.h"
#include "src/func/function.h"

namespace dfunc {
namespace {

// -------------------------------------------------------------------- Data

TEST(DataTest, TotalBytes) {
  DataSetList sets;
  sets.push_back(DataSet{"a", {DataItem{"k", "12345"}, DataItem{"", "xy"}}});
  sets.push_back(DataSet{"b", {}});
  EXPECT_EQ(TotalBytes(sets), 8u);  // 1 + 5 + 0 + 2.
}

TEST(DataTest, FindSet) {
  DataSetList sets;
  sets.push_back(DataSet{"a", {}});
  sets.push_back(DataSet{"b", {}});
  EXPECT_EQ(FindSet(sets, "b"), &sets[1]);
  EXPECT_EQ(FindSet(sets, "c"), nullptr);
  const DataSetList& const_sets = sets;
  EXPECT_EQ(FindSet(const_sets, "a"), &const_sets[0]);
}

TEST(MarshalTest, EmptyList) {
  auto round = UnmarshalSets(MarshalSets({}));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->empty());
}

TEST(MarshalTest, RoundTripPreservesEverything) {
  DataSetList sets;
  sets.push_back(DataSet{"first", {DataItem{"key1", "value1"}, DataItem{"", ""}}});
  sets.push_back(DataSet{"", {DataItem{"k", std::string("\0\x01\xff", 3)}}});
  sets.push_back(DataSet{"empty", {}});
  auto round = UnmarshalSets(MarshalSets(sets));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, sets);
}

TEST(MarshalTest, RejectsCorruptBuffers) {
  const std::string good = MarshalSets({DataSet{"s", {DataItem{"k", "v"}}}});
  EXPECT_FALSE(UnmarshalSets("").ok());
  EXPECT_FALSE(UnmarshalSets("shrt").ok());
  EXPECT_FALSE(UnmarshalSets(good.substr(0, good.size() - 1)).ok());  // Truncated.
  EXPECT_FALSE(UnmarshalSets(good + "x").ok());                      // Trailing.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(UnmarshalSets(bad_magic).ok());
}

// Property: random set lists round-trip bit-exactly.
class MarshalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalPropertyTest, RandomRoundTrip) {
  dbase::Rng rng(GetParam());
  DataSetList sets;
  const int num_sets = static_cast<int>(rng.NextBounded(5));
  for (int s = 0; s < num_sets; ++s) {
    DataSet set;
    set.name = "set" + std::to_string(rng.NextBounded(100));
    const int num_items = static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < num_items; ++i) {
      DataItem item;
      if (rng.Bernoulli(0.5)) {
        item.key = "key" + std::to_string(rng.NextBounded(10));
      }
      std::string bytes(rng.NextBounded(2000), '\0');
      for (auto& c : bytes) {
        c = static_cast<char>(rng.NextBounded(256));
      }
      item.data = std::move(bytes);
      set.items.push_back(std::move(item));
    }
    sets.push_back(std::move(set));
  }
  auto round = UnmarshalSets(MarshalSets(sets));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, sets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --------------------------------------------------------------- Context

TEST(FunctionCtxTest, SetAccessors) {
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {DataItem{"", "payload"}}});
  FunctionCtx ctx(std::move(inputs));
  EXPECT_NE(ctx.input_set("in"), nullptr);
  EXPECT_EQ(ctx.input_set("out"), nullptr);
  EXPECT_EQ(ctx.SingleInput("in").value(), "payload");
  EXPECT_FALSE(ctx.SingleInput("missing").ok());
}

TEST(FunctionCtxTest, SingleInputEmptySetFails) {
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {}});
  FunctionCtx ctx(std::move(inputs));
  EXPECT_FALSE(ctx.SingleInput("in").ok());
}

TEST(FunctionCtxTest, EmitOutputGroupsBySet) {
  FunctionCtx ctx({});
  ctx.EmitOutput("a", "1");
  ctx.EmitOutput("b", "2", "key-b");
  ctx.EmitOutput("a", "3");
  ASSERT_EQ(ctx.outputs().size(), 2u);
  const DataSet* a = FindSet(ctx.outputs(), "a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[1].data, "3");
  const DataSet* b = FindSet(ctx.outputs(), "b");
  ASSERT_EQ(b->items.size(), 1u);
  EXPECT_EQ(b->items[0].key, "key-b");
}

TEST(FunctionCtxTest, CancelFlag) {
  FunctionCtx ctx({});
  EXPECT_FALSE(ctx.cancelled());
  std::atomic<bool> flag{false};
  ctx.set_cancel_flag(&flag);
  EXPECT_FALSE(ctx.cancelled());
  flag.store(true);
  EXPECT_TRUE(ctx.cancelled());

  // The execution deadline cancels on its own, with no flag set.
  flag.store(false);
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  ctx.set_deadline(now + 60 * dbase::kMicrosPerSecond);
  EXPECT_FALSE(ctx.cancelled());
  ctx.set_deadline(now);
  EXPECT_TRUE(ctx.cancelled());
}

// --------------------------------------------------------------- Builtins

TEST(BuiltinsTest, Int64ArrayCodecRoundTrip) {
  const std::vector<int64_t> values = {0, 1, -1, INT64_MAX, INT64_MIN, 42};
  auto round = DecodeInt64Array(EncodeInt64Array(values));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, values);
  EXPECT_FALSE(DecodeInt64Array("123").ok());  // Not multiple of 8.
}

TEST(BuiltinsTest, MatMulAgainstIdentity) {
  const int n = 4;
  std::vector<int64_t> identity(n * n, 0);
  for (int i = 0; i < n; ++i) {
    identity[static_cast<size_t>(i) * n + i] = 1;
  }
  const std::vector<int64_t> a = MakeMatrix(n, 7);
  DataSetList inputs;
  inputs.push_back(DataSet{"A", {DataItem{"", EncodeInt64Array(a)}}});
  inputs.push_back(DataSet{"B", {DataItem{"", EncodeInt64Array(identity)}}});
  FunctionCtx ctx(std::move(inputs));
  ASSERT_TRUE(MatMulFunction(ctx).ok());
  const DataSet* c = FindSet(ctx.outputs(), "C");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(DecodeInt64Array(c->items[0].data).value(), a);
}

TEST(BuiltinsTest, MatMulMatchesReference) {
  const int n = 8;
  const auto a = MakeMatrix(n, 1);
  const auto b = MakeMatrix(n, 2);
  DataSetList inputs;
  inputs.push_back(DataSet{"A", {DataItem{"", EncodeInt64Array(a)}}});
  inputs.push_back(DataSet{"B", {DataItem{"", EncodeInt64Array(b)}}});
  FunctionCtx ctx(std::move(inputs));
  ASSERT_TRUE(MatMulFunction(ctx).ok());
  EXPECT_EQ(DecodeInt64Array(FindSet(ctx.outputs(), "C")->items[0].data).value(),
            MultiplyMatrices(a, b, n));
}

TEST(BuiltinsTest, MatMulRejectsBadShapes) {
  DataSetList inputs;
  inputs.push_back(DataSet{"A", {DataItem{"", EncodeInt64Array({1, 2})}}});
  inputs.push_back(DataSet{"B", {DataItem{"", EncodeInt64Array({1, 2})}}});
  FunctionCtx ctx(std::move(inputs));
  EXPECT_FALSE(MatMulFunction(ctx).ok());  // 2 elements is not square.

  DataSetList mismatched;
  mismatched.push_back(DataSet{"A", {DataItem{"", EncodeInt64Array({1})}}});
  mismatched.push_back(DataSet{"B", {DataItem{"", EncodeInt64Array({1, 2, 3, 4})}}});
  FunctionCtx ctx2(std::move(mismatched));
  EXPECT_FALSE(MatMulFunction(ctx2).ok());
}

TEST(BuiltinsTest, ArrayStats) {
  std::vector<int64_t> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i);
  }
  DataSetList inputs;
  inputs.push_back(DataSet{"data", {DataItem{"", EncodeInt64Array(values)}}});
  FunctionCtx ctx(std::move(inputs));
  ASSERT_TRUE(ArrayStatsFunction(ctx).ok());
  // Sampled every 8th: 0, 8, 16, ..., 56 → sum 224, min 0, max 56.
  EXPECT_EQ(FindSet(ctx.outputs(), "stats")->items[0].data, "sum=224 min=0 max=56");
}

TEST(BuiltinsTest, EchoPreservesKeysAndOrder) {
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {DataItem{"k1", "a"}, DataItem{"k2", "b"}}});
  FunctionCtx ctx(std::move(inputs));
  ASSERT_TRUE(EchoFunction(ctx).ok());
  const DataSet* out = FindSet(ctx.outputs(), "out");
  ASSERT_EQ(out->items.size(), 2u);
  EXPECT_EQ(out->items[0].key, "k1");
  EXPECT_EQ(out->items[1].data, "b");
}

TEST(BuiltinsTest, FailingFunctionFails) {
  FunctionCtx ctx({});
  EXPECT_FALSE(FailingFunction(ctx).ok());
}

TEST(BuiltinsTest, InfiniteLoopHonorsCancel) {
  FunctionCtx ctx({});
  std::atomic<bool> flag{true};  // Pre-cancelled: returns immediately.
  ctx.set_cancel_flag(&flag);
  EXPECT_EQ(InfiniteLoopFunction(ctx).code(), dbase::StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace dfunc
