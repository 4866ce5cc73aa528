// Seeded-mutation fuzzing shared by the trust-boundary fuzz suites: a
// deterministic byte mutator, exact-size heap slices (one byte past the end
// is outside the allocation, so an out-of-bounds read is an AddressSanitizer
// finding), and the decode/re-encode loop every suite runs its decoders
// through on a fixed budget.
#ifndef TESTS_FUZZ_UTIL_H_
#define TESTS_FUZZ_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"

namespace dfuzz {

constexpr int kIterationsPerDecoder = 4000;

// xorshift64: deterministic, so a failure replays from its iteration number.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  // One to three mutations of `bytes`.
  std::string Mutate(std::string bytes) {
    const int rounds = 1 + static_cast<int>(Next() % 3);
    for (int r = 0; r < rounds; ++r) {
      switch (Next() % 3) {
        case 0:  // Flip a byte.
          if (!bytes.empty()) {
            bytes[Next() % bytes.size()] ^= static_cast<char>(1 + Next() % 255);
          }
          break;
        case 1:  // Truncate.
          bytes.resize(Next() % (bytes.size() + 1));
          break;
        default:  // Overwrite a 32-bit little-endian length field.
          if (bytes.size() >= 4) {
            const size_t offset = Next() % (bytes.size() - 3);
            const uint32_t remaining = static_cast<uint32_t>(bytes.size() - offset - 4);
            const uint32_t edges[] = {0,          1,          remaining,  remaining + 1,
                                      remaining - 1, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                                      4096,       4097,       72u << 20,  (72u << 20) + 1,
                                      static_cast<uint32_t>(Next())};
            const uint32_t value = edges[Next() % std::size(edges)];
            for (int i = 0; i < 4; ++i) {
              bytes[offset + static_cast<size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xff);
            }
          }
          break;
      }
    }
    return bytes;
  }

 private:
  uint64_t state_;
};

// The bytes in a heap block of exactly their size: one byte past the end
// is outside the allocation.
inline dbase::BufferSlice ExactSlice(const std::string& bytes) {
  std::shared_ptr<char[]> memory(new char[bytes.size()]);
  std::memcpy(memory.get(), bytes.data(), bytes.size());
  const char* data = memory.get();
  return dbase::BufferSlice(dbase::Buffer::Wrap(data, bytes.size(), std::move(memory)));
}

inline bool IsInvalidArgument(const dbase::Status& status) {
  return status.code() == dbase::StatusCode::kInvalidArgument;
}

// Runs the budget for one decoder. `decode` maps an exact-size slice to a
// Result and `encode` maps a decoded value back to bytes. Every mutated seed
// must come back as a Status: a rejection must satisfy `valid_rejection`,
// and an accepted value must re-encode to bytes that decode again to the
// same encoding.
template <typename Decode, typename Encode,
          typename Rejection = bool (*)(const dbase::Status&)>
void FuzzDecoder(const char* name, uint64_t seed, const std::vector<std::string>& seeds,
                 Decode decode, Encode encode, Rejection valid_rejection = &IsInvalidArgument) {
  for (const std::string& valid : seeds) {
    ASSERT_TRUE(decode(ExactSlice(valid)).ok()) << name << ": a seed does not decode";
  }
  Mutator mutator(seed);
  int accepted = 0;
  for (int i = 0; i < kIterationsPerDecoder; ++i) {
    const std::string input = mutator.Mutate(seeds[static_cast<size_t>(i) % seeds.size()]);
    auto decoded = decode(ExactSlice(input));
    if (!decoded.ok()) {
      ASSERT_TRUE(valid_rejection(decoded.status()))
          << name << " iteration " << i << ": " << decoded.status().ToString();
      continue;
    }
    ++accepted;
    const std::string again = encode(*decoded);
    auto redecoded = decode(ExactSlice(again));
    ASSERT_TRUE(redecoded.ok()) << name << " iteration " << i << ": "
                                << redecoded.status().ToString();
    ASSERT_EQ(encode(*redecoded), again) << name << " iteration " << i;
  }
  // Not a correctness bound: a budget where nothing decodes only ever
  // exercises the rejection paths.
  EXPECT_GT(accepted, 0) << name;
}

}  // namespace dfuzz

#endif  // TESTS_FUZZ_UTIL_H_
