// Unit tests for the dnet wire format: header encode/decode with every
// rejection path, invoke/outcome/status/join/mesh body round trips, the
// zero-copy aliasing contract of DecodeInvoke, checked (never clamping)
// parsing of truncated or corrupt bodies, FrameSocket's SIGPIPE-free
// writes, and NodeServer adopting an already-bound listener.
#include "src/net/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <string>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/event_loop.h"
#include "src/func/data.h"
#include "src/net/frame_socket.h"
#include "src/net/node_server.h"

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

dbase::BufferSlice SliceOf(std::string bytes) {
  return dbase::BufferSlice(dbase::Buffer::FromString(std::move(bytes)));
}

TEST(WireHeaderTest, RoundTrip) {
  FrameHeader header;
  header.type = FrameType::kInvoke;
  header.flags = kFlagShed;
  header.body_len = 12345;
  header.request_id = 0xABCDEF0123456789ull;
  const std::string bytes = EncodeFrameHeader(header);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);

  auto decoded = DecodeFrameHeader(bytes, FrameLimits{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->type, FrameType::kInvoke);
  EXPECT_EQ(decoded->flags, kFlagShed);
  EXPECT_EQ(decoded->body_len, 12345u);
  EXPECT_EQ(decoded->request_id, 0xABCDEF0123456789ull);
}

TEST(WireHeaderTest, RejectsShortBuffer) {
  const std::string bytes = EncodeFrameHeader(FrameHeader{});
  auto decoded = DecodeFrameHeader(std::string_view(bytes).substr(0, 10), FrameLimits{});
  EXPECT_FALSE(decoded.ok());
}

TEST(WireHeaderTest, RejectsBadMagic) {
  std::string bytes = EncodeFrameHeader(FrameHeader{});
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrameHeader(bytes, FrameLimits{}).ok());
}

TEST(WireHeaderTest, RejectsUnknownVersion) {
  std::string bytes = EncodeFrameHeader(FrameHeader{});
  bytes[4] = 99;
  EXPECT_FALSE(DecodeFrameHeader(bytes, FrameLimits{}).ok());
}

TEST(WireHeaderTest, RejectsUnknownType) {
  std::string bytes = EncodeFrameHeader(FrameHeader{});
  bytes[5] = 77;  // No FrameType has this value.
  EXPECT_FALSE(DecodeFrameHeader(bytes, FrameLimits{}).ok());
}

TEST(WireHeaderTest, RejectsNonZeroReserved) {
  std::string bytes = EncodeFrameHeader(FrameHeader{});
  bytes[13] = 1;  // Reserved word must be zero.
  EXPECT_FALSE(DecodeFrameHeader(bytes, FrameLimits{}).ok());
}

TEST(WireHeaderTest, RejectsOversizedBody) {
  FrameLimits limits;
  limits.max_body_bytes = 1024;
  FrameHeader header;
  header.type = FrameType::kInvoke;
  header.body_len = 1025;
  EXPECT_FALSE(DecodeFrameHeader(EncodeFrameHeader(header), limits).ok());
  header.body_len = 1024;
  EXPECT_TRUE(DecodeFrameHeader(EncodeFrameHeader(header), limits).ok());
}

TEST(WireInvokeTest, RoundTrip) {
  WireInvoke invoke;
  invoke.composition = "MatMulChain";
  invoke.remaining_deadline_us = 2'500'000;
  invoke.priority = 1;
  invoke.invocation_id = 42;
  invoke.args.push_back(
      DataSet{"in", {DataItem{"k0", "payload zero"}, DataItem{"k1", "payload one"}}});
  invoke.args.push_back(DataSet{"cfg", {DataItem{"", std::string(100, 'x')}}});

  auto body = SliceOf(Concat(EncodeInvoke(invoke)));
  auto decoded = DecodeInvoke(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->composition, "MatMulChain");
  EXPECT_EQ(decoded->remaining_deadline_us, 2'500'000);
  EXPECT_EQ(decoded->priority, 1);
  EXPECT_EQ(decoded->invocation_id, 42u);
  ASSERT_EQ(decoded->args.size(), 2u);
  EXPECT_EQ(decoded->args[0].name, "in");
  ASSERT_EQ(decoded->args[0].items.size(), 2u);
  EXPECT_EQ(decoded->args[0].items[0].key, "k0");
  EXPECT_EQ(decoded->args[0].items[0].data.ToString(), "payload zero");
  EXPECT_EQ(decoded->args[1].items[0].data.ToString(), std::string(100, 'x'));
}

TEST(WireInvokeTest, DecodedPayloadsAliasTheBody) {
  WireInvoke invoke;
  invoke.composition = "Id";
  invoke.args.push_back(DataSet{"in", {DataItem{"", std::string(64 * 1024, 'z')}}});

  auto body = SliceOf(Concat(EncodeInvoke(invoke)));
  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  auto decoded = DecodeInvoke(body);
  const auto after = dfunc::DataPlaneStats::Get().snapshot();
  ASSERT_TRUE(decoded.ok());
  // The unmarshal under DecodeInvoke aliases the receive buffer: payload
  // bytes move by reference, none are memcpy'd.
  EXPECT_EQ(after.bytes_copied, before.bytes_copied);
  EXPECT_GE(after.bytes_aliased, before.bytes_aliased + 64 * 1024);
}

TEST(WireInvokeTest, RejectsTruncatedBody) {
  WireInvoke invoke;
  invoke.composition = "Id";
  invoke.args.push_back(DataSet{"in", {DataItem{"", "hello"}}});
  std::string bytes = Concat(EncodeInvoke(invoke));
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    auto truncated = DecodeInvoke(SliceOf(bytes.substr(0, cut)));
    EXPECT_FALSE(truncated.ok()) << "cut=" << cut;
    if (!truncated.ok()) {
      EXPECT_EQ(truncated.status().code(), dbase::StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireOutcomeTest, OkRoundTripCarriesSets) {
  WireOutcome outcome;
  outcome.sets.push_back(DataSet{"out", {DataItem{"r", "result bytes"}}});
  auto body = SliceOf(Concat(EncodeOutcome(outcome)));
  auto decoded = DecodeOutcome(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, dbase::StatusCode::kOk);
  ASSERT_EQ(decoded->sets.size(), 1u);
  EXPECT_EQ(decoded->sets[0].items[0].data.ToString(), "result bytes");
}

TEST(WireOutcomeTest, ErrorRoundTripCarriesTaxonomy) {
  WireOutcome outcome;
  outcome.code = dbase::StatusCode::kInternal;
  outcome.message = "sandbox crashed";
  outcome.failure_kind = 1;  // dpolicy::FailureKind::kCrash.
  outcome.retries_attempted = 2;
  auto decoded = DecodeOutcome(SliceOf(Concat(EncodeOutcome(outcome))));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, dbase::StatusCode::kInternal);
  EXPECT_EQ(decoded->message, "sandbox crashed");
  EXPECT_EQ(decoded->failure_kind, 1);
  EXPECT_EQ(decoded->retries_attempted, 2u);
}

TEST(WireOutcomeTest, RejectsCorruptBody) {
  WireOutcome outcome;
  outcome.sets.push_back(DataSet{"out", {DataItem{"", "x"}}});
  std::string bytes = Concat(EncodeOutcome(outcome));
  std::string corrupt = bytes;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(DecodeOutcome(SliceOf(corrupt)).ok());
}

TEST(WireStatusTest, RoundTrip) {
  WireNodeStatus status;
  status.node_name = "engine-3";
  status.signals.compute_workers = 6;
  status.signals.comm_workers = 2;
  status.signals.compute_backlog = 17;
  status.signals.inflight_interactive = 4;
  status.signals.admission_shed = 9;
  status.signals.warm_pool_shelved = 3;
  status.resident_compositions = {"Id", "MatMulChain"};
  status.inflight = 5;
  status.admission_cap = 256;

  auto decoded = DecodeNodeStatus(SliceOf(EncodeNodeStatus(status)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->node_name, "engine-3");
  EXPECT_EQ(decoded->signals.compute_workers, 6);
  EXPECT_EQ(decoded->signals.comm_workers, 2);
  EXPECT_EQ(decoded->signals.compute_backlog, 17u);
  EXPECT_EQ(decoded->signals.inflight_interactive, 4u);
  EXPECT_EQ(decoded->signals.admission_shed, 9u);
  EXPECT_EQ(decoded->signals.warm_pool_shelved, 3u);
  EXPECT_EQ(decoded->resident_compositions,
            (std::vector<std::string>{"Id", "MatMulChain"}));
  EXPECT_EQ(decoded->inflight, 5u);
  EXPECT_EQ(decoded->admission_cap, 256u);
}

TEST(WireStatusTest, RejectsTruncation) {
  WireNodeStatus status;
  status.node_name = "n";
  status.resident_compositions = {"Id"};
  std::string bytes = EncodeNodeStatus(status);
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(DecodeNodeStatus(SliceOf(bytes.substr(0, cut))).ok()) << "cut=" << cut;
  }
}

TEST(WireJoinTest, RoundTrip) {
  auto decoded = DecodeJoin(SliceOf(EncodeJoin(WireJoin{"router-a"})));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->node_name, "router-a");
}

// Writing to a peer that already hung up must close the socket kUnavailable
// and leave the process alive with SIGPIPE at its default, fatal action —
// the socket layer cannot lean on anyone ignoring the signal process-wide.
TEST(FrameSocketTest, WriteToClosedPeerClosesUnavailableWithoutSigpipe) {
  struct sigaction default_action {};
  struct sigaction saved_action {};
  default_action.sa_handler = SIG_DFL;
  sigemptyset(&default_action.sa_mask);
  ASSERT_EQ(sigaction(SIGPIPE, &default_action, &saved_action), 0);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  close(fds[1]);
  auto loop = dbase::EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  dbase::EventLoop::Scope scope(loop->get());
  std::optional<dbase::Status> closed;
  auto socket = FrameSocket::Adopt(
      &scope, fds[0], FrameLimits{}, std::make_shared<PeerCounters>(),
      [](const FrameHeader&, dbase::BufferSlice) {},
      [&closed](const dbase::Status& reason) { closed = reason; });
  ASSERT_TRUE(socket.ok());
  (*socket)->SendFrame(FrameType::kGossipReq, 0, 1, std::string());

  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->code(), dbase::StatusCode::kUnavailable);
  EXPECT_TRUE((*socket)->closed());
  sigaction(SIGPIPE, &saved_action, nullptr);
}

// Reads exactly `n` bytes from a blocking socket; shorter on EOF/timeout.
std::string ReadExactly(int fd, size_t n) {
  std::string out(n, '\0');
  size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, out.data() + got, n - got);
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  out.resize(got);
  return out;
}

// A server handed an already-bound listener serves on it: port() is that
// socket's port, a join sent before Start() waits in the kernel and is
// answered, and Stop() closes the socket.
TEST(NodeServerTest, AdoptedListenerServesAndIsClosedOnStop) {
  auto listener = ListenLoopback(0, 16);
  if (!listener.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << listener.status().ToString();
  }
  auto bound = BoundPort(*listener);
  ASSERT_TRUE(bound.ok());

  NodeServer::Config config;
  config.node_name = "adopter";
  config.listen_fd = *listener;
  NodeServer server(config);

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*bound);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string body = EncodeJoin(WireJoin{"early-router"});
  FrameHeader join;
  join.type = FrameType::kJoin;
  join.body_len = static_cast<uint32_t>(body.size());
  join.request_id = 5;
  const std::string frame = EncodeFrameHeader(join) + body;
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.port(), *bound);
  auto ack = DecodeFrameHeader(ReadExactly(fd, kFrameHeaderBytes), FrameLimits{});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, FrameType::kJoinAck);
  EXPECT_EQ(ack->request_id, 5u);
  auto ack_body = DecodeJoin(SliceOf(ReadExactly(fd, ack->body_len)));
  ASSERT_TRUE(ack_body.ok()) << ack_body.status().ToString();
  EXPECT_EQ(ack_body->node_name, "adopter");
  close(fd);

  server.Stop();
  errno = 0;
  EXPECT_EQ(fcntl(*listener, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST(WireMeshTest, RoundTrip) {
  WireMeshReply reply;
  reply.latency_us = 777;
  reply.response = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
  auto decoded = DecodeMeshReply(SliceOf(EncodeMeshReply(reply)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->latency_us, 777);
  EXPECT_EQ(decoded->response, reply.response);
}

}  // namespace
}  // namespace dnet
