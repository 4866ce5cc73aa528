// Seeded-mutation fuzzing of every dnet decoder and of the HTTP request
// head scan + parse. The node wire and the frontend port are trust
// boundaries: anyone who can reach them can send any bytes. Each decoder
// gets a fixed budget of mutated valid encodings (byte flips, truncations,
// and length fields overwritten with edge values) and must never crash,
// must reject with kInvalidArgument, and must only accept bodies that
// re-encode within FrameLimits to bytes it decodes again unchanged.
// Mutated inputs sit in exact-size heap blocks, so an out-of-bounds read
// is an AddressSanitizer finding (ctest -L fuzz runs under ASan+UBSan in
// CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/buffer.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/net/wire.h"

namespace dnet {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

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
dbase::BufferSlice ExactSlice(const std::string& bytes) {
  std::shared_ptr<char[]> memory(new char[bytes.size()]);
  std::memcpy(memory.get(), bytes.data(), bytes.size());
  const char* data = memory.get();
  return dbase::BufferSlice(dbase::Buffer::Wrap(data, bytes.size(), std::move(memory)));
}

std::string Concat(const std::vector<dbase::BufferSlice>& chunks) {
  std::string out;
  for (const auto& chunk : chunks) {
    out.append(chunk.view());
  }
  return out;
}

DataSetList SampleSets() {
  DataSetList sets;
  sets.push_back(DataSet{"in", {DataItem{"k0", "payload zero"}, DataItem{"", ""}}});
  sets.push_back(DataSet{"cfg", {DataItem{"key", std::string(300, 'x')}}});
  sets.push_back(DataSet{"empty", {}});
  return sets;
}

// Runs the budget for one decoder. `decode` maps a body slice to a Result;
// `encode` maps a decoded value back to body bytes.
template <typename Decode, typename Encode>
void FuzzDecoder(const char* name, uint64_t seed, const std::vector<std::string>& seeds,
                 Decode decode, Encode encode) {
  for (const std::string& valid : seeds) {
    ASSERT_TRUE(decode(ExactSlice(valid)).ok()) << name << ": a seed does not decode";
  }
  Mutator mutator(seed);
  int accepted = 0;
  for (int i = 0; i < kIterationsPerDecoder; ++i) {
    const std::string input = mutator.Mutate(seeds[static_cast<size_t>(i) % seeds.size()]);
    auto decoded = decode(ExactSlice(input));
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), dbase::StatusCode::kInvalidArgument)
          << name << " iteration " << i << ": " << decoded.status().ToString();
      continue;
    }
    ++accepted;
    const std::string again = encode(*decoded);
    ASSERT_LE(again.size(), FrameLimits{}.max_body_bytes) << name << " iteration " << i;
    auto redecoded = decode(ExactSlice(again));
    ASSERT_TRUE(redecoded.ok()) << name << " iteration " << i << ": "
                                << redecoded.status().ToString();
    ASSERT_EQ(encode(*redecoded), again) << name << " iteration " << i;
  }
  // Not a correctness bound: a budget where nothing decodes only ever
  // exercises the rejection paths.
  EXPECT_GT(accepted, 0) << name;
}

TEST(WireFuzzTest, FrameHeader) {
  FrameLimits limits;
  limits.max_body_bytes = 4096;
  std::vector<std::string> seeds;
  for (uint8_t type = static_cast<uint8_t>(FrameType::kJoin);
       type <= static_cast<uint8_t>(FrameType::kMeshReply); ++type) {
    FrameHeader header;
    header.type = static_cast<FrameType>(type);
    header.flags = type % 2 == 0 ? kFlagShed : 0;
    header.body_len = 17u * type;
    header.request_id = 0x0102030405060708ull * type;
    seeds.push_back(EncodeFrameHeader(header));
  }
  FuzzDecoder(
      "DecodeFrameHeader", 0x9E3779B97F4A7C15ull, seeds,
      [&limits](const dbase::BufferSlice& bytes) {
        auto header = DecodeFrameHeader(bytes.view(), limits);
        if (header.ok()) {
          EXPECT_LE(header->body_len, limits.max_body_bytes);
          EXPECT_EQ(EncodeFrameHeader(*header), bytes.view().substr(0, kFrameHeaderBytes));
        }
        return header;
      },
      [](const FrameHeader& header) { return EncodeFrameHeader(header); });
}

TEST(WireFuzzTest, InvokeBody) {
  std::vector<std::string> seeds;
  {
    WireInvoke invoke;
    invoke.composition = "MatMulChain";
    invoke.remaining_deadline_us = 2'500'000;
    invoke.priority = 1;
    invoke.invocation_id = 42;
    invoke.args = SampleSets();
    seeds.push_back(Concat(EncodeInvoke(invoke)));
  }
  {
    WireInvoke invoke;
    invoke.composition = "Id";
    seeds.push_back(Concat(EncodeInvoke(invoke)));
  }
  FuzzDecoder(
      "DecodeInvoke", 0xD1B54A32D192ED03ull, seeds,
      [](const dbase::BufferSlice& body) { return DecodeInvoke(body); },
      [](WireInvoke invoke) { return Concat(EncodeInvoke(invoke)); });
}

TEST(WireFuzzTest, OutcomeBody) {
  std::vector<std::string> seeds;
  {
    WireOutcome outcome;
    outcome.sets = SampleSets();
    seeds.push_back(Concat(EncodeOutcome(outcome)));
  }
  {
    WireOutcome outcome;
    outcome.code = dbase::StatusCode::kInternal;
    outcome.message = "sandbox crashed";
    outcome.failure_kind = 1;
    outcome.retries_attempted = 2;
    seeds.push_back(Concat(EncodeOutcome(outcome)));
  }
  FuzzDecoder(
      "DecodeOutcome", 0xA0761D6478BD642Full, seeds,
      [](const dbase::BufferSlice& body) { return DecodeOutcome(body); },
      [](WireOutcome outcome) { return Concat(EncodeOutcome(outcome)); });
}

TEST(WireFuzzTest, NodeStatusBody) {
  WireNodeStatus status;
  status.node_name = "engine-3";
  status.signals.compute_workers = 6;
  status.signals.comm_workers = 2;
  status.signals.compute_backlog = 17;
  status.signals.admission_shed = 9;
  status.resident_compositions = {"Id", "MatMulChain", ""};
  status.inflight = 5;
  status.admission_cap = 256;
  FuzzDecoder(
      "DecodeNodeStatus", 0xE7037ED1A0B428DBull, {EncodeNodeStatus(status)},
      [](const dbase::BufferSlice& body) { return DecodeNodeStatus(body); },
      [](const WireNodeStatus& decoded) { return EncodeNodeStatus(decoded); });
}

TEST(WireFuzzTest, JoinBody) {
  FuzzDecoder(
      "DecodeJoin", 0x8EBC6AF09C88C6E3ull, {EncodeJoin(WireJoin{"router-a"}), EncodeJoin({})},
      [](const dbase::BufferSlice& body) { return DecodeJoin(body); },
      [](const WireJoin& join) { return EncodeJoin(join); });
}

TEST(WireFuzzTest, MeshReplyBody) {
  WireMeshReply reply;
  reply.latency_us = 777;
  reply.response = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
  FuzzDecoder(
      "DecodeMeshReply", 0x589965CC75374CC3ull, {EncodeMeshReply(reply)},
      [](const dbase::BufferSlice& body) { return DecodeMeshReply(body); },
      [](const WireMeshReply& decoded) { return EncodeMeshReply(decoded); });
}

// What the frontend does with buffered request bytes: locate the head and
// its framing length, then parse exactly the framed message. Bytes past it
// belong to the next pipelined request; a message still missing bytes is
// a rejection here (the frontend would wait for more).
dbase::Result<dhttp::HttpRequest> ScanThenParse(std::string_view bytes) {
  ASSIGN_OR_RETURN(std::optional<dhttp::MessageHead> head,
                   dhttp::ScanMessageHead(bytes, /*max_head_bytes=*/1 << 16));
  if (!head.has_value() || head->content_length > bytes.size() - head->head_bytes) {
    return dbase::InvalidArgument("incomplete message");
  }
  EXPECT_EQ(bytes.substr(head->head_bytes - 4, 4), "\r\n\r\n");
  ASSIGN_OR_RETURN(dhttp::HttpRequest request,
                   dhttp::ParseRequest(bytes.substr(0, head->head_bytes + head->content_length)));
  // Scanner and parser must agree on the framing, or a pipelined stream
  // desyncs (request smuggling).
  EXPECT_EQ(request.body.size(), head->content_length);
  return request;
}

TEST(HttpFuzzTest, RequestHeadScanAndParse) {
  const std::string invoke =
      "POST /invoke/Id HTTP/1.1\r\nHost: frontend\r\nX-Dandelion-Raw: 1\r\n"
      "Content-Length: 11\r\n\r\nhello world";
  const std::string statz = "GET /statz HTTP/1.1\r\n\r\n";
  FuzzDecoder(
      "ScanMessageHead+ParseRequest", 0x2545F4914F6CDD1Dull,
      {invoke, statz,
       // Identical duplicate lengths are tolerated.
       "PUT /invoke/Sum HTTP/1.0\r\nContent-Length: 3\r\ncontent-length: 3\r\n"
       "X-Dandelion-Deadline-Ms: 250\r\n\r\nabc",
       // Pipelined: the second request is not part of the first's framing.
       invoke + statz},
      [](const dbase::BufferSlice& bytes) { return ScanThenParse(bytes.view()); },
      [](const dhttp::HttpRequest& request) { return request.Serialize(); });
}

}  // namespace
}  // namespace dnet
