// Seeded-mutation fuzzing of every dnet decoder and of the HTTP request
// head scan + parse (with the head-only parse checked against the
// whole-message parse on every input). The node wire and the frontend port are trust
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
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/buffer.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/net/wire.h"
#include "tests/fuzz_util.h"

namespace dnet {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

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

// Accepted bodies must also re-encode within the frame limit.
template <typename Decode, typename Encode>
void FuzzWireDecoder(const char* name, uint64_t seed, const std::vector<std::string>& seeds,
                     Decode decode, Encode encode) {
  dfuzz::FuzzDecoder(name, seed, seeds, decode, [name, encode](const auto& value) {
    std::string bytes = encode(value);
    EXPECT_LE(bytes.size(), FrameLimits{}.max_body_bytes) << name;
    return bytes;
  });
}

TEST(WireFuzzTest, FrameHeader) {
  FrameLimits limits;
  limits.max_body_bytes = 4096;
  std::vector<std::string> seeds;
  for (uint8_t type = static_cast<uint8_t>(FrameType::kJoin);
       type <= static_cast<uint8_t>(FrameType::kGossip); ++type) {
    FrameHeader header;
    header.type = static_cast<FrameType>(type);
    header.flags = type % 2 == 0 ? kFlagShed : 0;
    header.body_len = 17u * type;
    header.request_id = 0x0102030405060708ull * type;
    seeds.push_back(EncodeFrameHeader(header));
  }
  FuzzWireDecoder(
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
  FuzzWireDecoder(
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
  FuzzWireDecoder(
      "DecodeOutcome", 0xA0761D6478BD642Full, seeds,
      [](const dbase::BufferSlice& body) { return DecodeOutcome(body); },
      [](WireOutcome outcome) { return Concat(EncodeOutcome(outcome)); });
}

TEST(WireFuzzTest, NodeStatusBody) {
  WireNodeStatus status;
  status.node_name = "engine-3";
  status.inflight = 5;
  status.admission_cap = 256;
  status.backlog = 17;
  FuzzWireDecoder(
      "DecodeNodeStatus", 0xE7037ED1A0B428DBull, {EncodeNodeStatus(status)},
      [](const dbase::BufferSlice& body) { return DecodeNodeStatus(body); },
      [](const WireNodeStatus& decoded) { return EncodeNodeStatus(decoded); });
}

TEST(WireFuzzTest, JoinBody) {
  FuzzWireDecoder(
      "DecodeJoin", 0x8EBC6AF09C88C6E3ull, {EncodeJoin(WireJoin{"router-a"}), EncodeJoin({})},
      [](const dbase::BufferSlice& body) { return DecodeJoin(body); },
      [](const WireJoin& join) { return EncodeJoin(join); });
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
  const std::string_view wire = bytes.substr(0, head->head_bytes + head->content_length);
  dbase::Result<dhttp::HttpRequest> whole = dhttp::ParseRequest(wire);
  // Differential: the frontend parses the head alone and takes the body it
  // frames from elsewhere. That must agree with the whole-message parse in
  // verdict, error and every field.
  auto split = dhttp::ParseRequestHead(wire.substr(0, head->head_bytes));
  EXPECT_EQ(split.ok(), whole.ok()) << (split.ok() ? whole.status() : split.status()).ToString();
  if (split.ok() && whole.ok()) {
    EXPECT_EQ(split->content_length, head->content_length);
    EXPECT_EQ(split->request.method, whole->method);
    EXPECT_EQ(split->request.target, whole->target);
    EXPECT_EQ(split->request.version, whole->version);
    EXPECT_EQ(split->request.headers.entries(), whole->headers.entries());
    EXPECT_TRUE(split->request.body.empty());
    EXPECT_EQ(whole->body, wire.substr(head->head_bytes));
  } else if (!split.ok() && !whole.ok()) {
    EXPECT_EQ(split.status().ToString(), whole.status().ToString());
  }
  if (!whole.ok()) {
    return whole.status();
  }
  // Scanner and parser must agree on the framing, or a pipelined stream
  // desyncs (request smuggling).
  EXPECT_EQ(whole->body.size(), head->content_length);
  return whole;
}

TEST(HttpFuzzTest, RequestHeadScanAndParse) {
  const std::string invoke =
      "POST /invoke/Id HTTP/1.1\r\nHost: frontend\r\nX-Dandelion-Raw: 1\r\n"
      "Content-Length: 11\r\n\r\nhello world";
  const std::string statz = "GET /statz HTTP/1.1\r\n\r\n";
  FuzzWireDecoder(
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
