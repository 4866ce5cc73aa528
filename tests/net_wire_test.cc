// Unit tests for the dnet wire format: header encode/decode with every
// rejection path, invoke/outcome/status/join/mesh body round trips, the
// zero-copy aliasing contract of DecodeInvoke, checked (never clamping)
// parsing of truncated or corrupt bodies, FrameSocket's SIGPIPE-free
// writes, NodeServer adopting an already-bound listener, and the socket
// layer under all of them: SendQueue's gathered writes, an accept loop that
// does not spin when descriptors run out, and a connect that cannot stall
// the process reactor.
#include "src/net/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/func/data.h"
#include "src/net/frame_socket.h"
#include "src/net/node_client.h"
#include "src/net/node_server.h"
#include "src/net/socket.h"
#include "src/runtime/frontend.h"
#include "src/runtime/platform.h"

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

// ------------------------------------------------------------ SendQueue

// 200 chunks of mixed sizes, empty ones included, through a small send
// buffer: Flush crosses the 64-iovec cap and resumes mid-chunk after
// partial writes, the bytes arrive in order, and pending() is exact after
// every call.
TEST(SendQueueTest, GathersInOrderAcrossIovecCapAndPartialWrites) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ASSERT_EQ(fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK), 0);
  int sndbuf = 4096;
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);

  const size_t kSizes[] = {0, 1, 7, 300, 0, 5000, 64, 20000};
  SendQueue queue;
  std::string expected;
  for (size_t i = 0; i < 200; ++i) {
    std::string chunk(kSizes[i % std::size(kSizes)], '\0');
    for (size_t j = 0; j < chunk.size(); ++j) {
      chunk[j] = static_cast<char>('a' + (i + j) % 26);
    }
    expected += chunk;
    queue.Push(SliceOf(std::move(chunk)));
  }
  ASSERT_EQ(queue.pending(), expected.size());

  std::string received;
  const auto read_all = [&received, fd = fds[1], total = expected.size()] {
    char buffer[1024];
    while (received.size() < total) {
      const ssize_t n = read(fd, buffer, sizeof(buffer));
      if (n <= 0) {
        return;
      }
      received.append(buffer, static_cast<size_t>(n));
    }
  };
  size_t pending = expected.size();
  int flushes = 0;
  std::thread reader;
  while (pending > 0) {
    auto sent = queue.Flush(fds[0]);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ++flushes;
    pending -= *sent;
    ASSERT_EQ(queue.pending(), pending);
    if (!reader.joinable()) {
      // Started only after the first Flush: with nobody reading yet, that
      // one must stop at EAGAIN on the full send buffer.
      reader = std::thread(read_all);
    }
    if (pending > 0) {
      pollfd pfd{fds[0], POLLOUT, 0};
      ASSERT_EQ(poll(&pfd, 1, 5000), 1);
    }
  }
  reader.join();
  EXPECT_GT(flushes, 1);  // The send buffer forced partial writes.
  EXPECT_EQ(received, expected);
  close(fds[0]);
  close(fds[1]);
}

TEST(SendQueueTest, ClosedPeerIsUnavailableWithoutSigpipe) {
  struct sigaction default_action {};
  struct sigaction saved_action {};
  default_action.sa_handler = SIG_DFL;
  sigemptyset(&default_action.sa_mask);
  ASSERT_EQ(sigaction(SIGPIPE, &default_action, &saved_action), 0);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds), 0);
  close(fds[1]);
  SendQueue queue;
  queue.Push(SliceOf("orphaned"));
  auto sent = queue.Flush(fds[0]);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.status().code(), dbase::StatusCode::kUnavailable);
  EXPECT_EQ(queue.pending(), 8u);
  close(fds[0]);
  sigaction(SIGPIPE, &saved_action, nullptr);
}

// ------------------------------------------------ accept under EMFILE

dbase::Micros ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& tv) {
    return static_cast<dbase::Micros>(tv.tv_sec) * dbase::kMicrosPerSecond + tv.tv_usec;
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

// Shared body of the EMFILE cases. With the descriptor table full, a
// connection waiting in the backlog of the listener on `port` must not make
// the reactor spin; once the limit is restored, the connection is accepted
// and `round_trip` (a blocking exchange on the client fd) succeeds within
// 500 ms.
void ExpectEmfileDoesNotSpinTheReactor(uint16_t port, const std::function<void(int)>& round_trip) {
  const int client = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  timeval timeout{};
  timeout.tv_usec = 500 * 1000;
  setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // The lowest free descriptor number: with the limit there, no new
  // descriptor fits, so the server's accept fails with EMFILE.
  const int probe = open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(probe, 0);
  close(probe);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(probe);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int connected = connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const dbase::Micros cpu_before = ProcessCpuMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const dbase::Micros cpu_used = ProcessCpuMicros() - cpu_before;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(connected, 0);
  EXPECT_LT(cpu_used, 50 * dbase::kMicrosPerMilli);

  const dbase::Stopwatch watch;
  round_trip(client);
  EXPECT_LT(watch.ElapsedMicros(), 500 * dbase::kMicrosPerMilli);
  close(client);
}

TEST(AcceptTest, EmfileDoesNotSpinNodeServer) {
  NodeServer::Config config;
  config.node_name = "crowded";
  NodeServer server(config);
  server.set_status_provider([] {
    WireNodeStatus status;
    status.node_name = "crowded";
    return status;
  });
  if (const dbase::Status started = server.Start(); !started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ExpectEmfileDoesNotSpinTheReactor(server.port(), [](int fd) {
    FrameHeader request;
    request.type = FrameType::kGossipReq;
    request.request_id = 9;
    const std::string frame = EncodeFrameHeader(request);
    ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    auto reply = DecodeFrameHeader(ReadExactly(fd, kFrameHeaderBytes), FrameLimits{});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kGossip);
    EXPECT_EQ(reply->request_id, 9u);
    auto status = DecodeNodeStatus(SliceOf(ReadExactly(fd, reply->body_len)));
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_EQ(status->node_name, "crowded");
  });
  server.Stop();
}

TEST(AcceptTest, EmfileDoesNotSpinHttpFrontend) {
  dandelion::PlatformConfig platform_config;
  platform_config.num_workers = 2;
  platform_config.backend = dandelion::IsolationBackend::kThread;
  dandelion::Platform platform(platform_config);
  dandelion::HttpFrontend frontend(&platform);
  if (const dbase::Status started = frontend.Start(); !started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ExpectEmfileDoesNotSpinTheReactor(frontend.port(), [](int fd) {
    const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    ASSERT_EQ(send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    const std::string status_line = "HTTP/1.1 200";
    EXPECT_EQ(ReadExactly(fd, status_line.size()), status_line);
  });
  frontend.Stop();
}

// ------------------------------------------------------ wedged connect

// A peer whose accept queue is full drops SYNs, so a connect to it stays
// in progress for seconds. The client must not wait for it on the
// reactor: a closure posted right behind the gossip runs at once, and the
// gossip still fails as peer lost within the 2 s connect bound.
TEST(NodeClientTest, WedgedPeerDoesNotStallTheReactor) {
  auto listener = ListenLoopback(0, 0);
  if (!listener.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << listener.status().ToString();
  }
  auto port = BoundPort(*listener);
  ASSERT_TRUE(port.ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  // Fill the accept queue: connect until one stays in progress for 50 ms.
  std::vector<int> fillers;
  bool wedged = false;
  while (!wedged && fillers.size() < 64) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    fillers.push_back(fd);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      continue;
    }
    ASSERT_EQ(errno, EINPROGRESS);
    pollfd pfd{fd, POLLOUT, 0};
    wedged = poll(&pfd, 1, 50) == 0;
  }
  ASSERT_TRUE(wedged) << "the listener never stopped completing handshakes";

  NodeClient client("router");
  ASSERT_TRUE(client.Start().ok());
  client.AddPeer("wedged", *port);
  const dbase::Stopwatch watch;
  std::promise<std::pair<dbase::Status, dbase::Micros>> gossiped;
  client.GossipAsync("wedged", 5 * dbase::kMicrosPerSecond,
                     [&gossiped, &watch](dbase::Result<WireNodeStatus> status) {
                       gossiped.set_value({status.status(), watch.ElapsedMicros()});
                     });
  std::promise<dbase::Micros> posted;
  dbase::EventLoop::Process()->Post([&posted, &watch] { posted.set_value(watch.ElapsedMicros()); });

  auto posted_done = posted.get_future();
  ASSERT_EQ(posted_done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_LT(posted_done.get(), 100 * dbase::kMicrosPerMilli);
  auto gossip_done = gossiped.get_future();
  ASSERT_EQ(gossip_done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const auto [status, elapsed] = gossip_done.get();
  EXPECT_EQ(status.code(), dbase::StatusCode::kUnavailable) << status.ToString();
  EXPECT_NE(status.message().find("peer lost"), std::string::npos) << status.ToString();
  EXPECT_LT(elapsed, 3 * dbase::kMicrosPerSecond);

  client.Stop();
  for (int fd : fillers) {
    close(fd);
  }
  close(*listener);
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
