// Tests for the epoll-based HTTP frontend: keep-alive reuse, pipelining
// with in-order responses, concurrent clients, slowloris/idle timeouts,
// non-blocking invocation, body-mode ingest of large bodies and its
// buffering budget, and the preserved 413/400 error contracts.
#include "src/runtime/frontend.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/util.h"
#include "src/base/clock.h"
#include "src/base/string_util.h"
#include "src/func/builtins.h"
#include "src/http/http_parser.h"
#include "src/http/services.h"
#include "src/runtime/cluster.h"
#include "src/runtime/node_agent.h"
#include "src/runtime/platform.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

PlatformConfig FastPlatformConfig() {
  PlatformConfig config;
  config.num_workers = 4;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  return config;
}

// Plain blocking TCP client socket connected to the frontend, with a read
// timeout so a frontend bug fails the test instead of hanging it.
int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = write(fd, data.data() + offset, data.size() - offset);
    ASSERT_GT(n, 0);
    offset += static_cast<size_t>(n);
  }
}

// Reads exactly one response off a keep-alive socket, leaving any pipelined
// extra bytes in *carry for the next call.
dbase::Result<dhttp::HttpResponse> ReadOneResponse(int fd, std::string* carry) {
  char buffer[8192];
  while (true) {
    auto head = dhttp::ScanMessageHead(*carry, 1 << 20);
    if (!head.ok()) {
      return head.status();
    }
    if (head->has_value()) {
      const size_t total = (*head)->head_bytes + static_cast<size_t>((*head)->content_length);
      if (carry->size() >= total) {
        auto response = dhttp::ParseResponse(std::string_view(*carry).substr(0, total));
        carry->erase(0, total);
        return response;
      }
    }
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      return dbase::Unavailable("connection closed mid-response");
    }
    carry->append(buffer, static_cast<size_t>(n));
  }
}

std::string RawInvoke(const std::string& composition, const std::string& body) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  request.headers.Add("X-Dandelion-Raw", "1");
  request.body = body;
  return request.Serialize();
}

std::string RawInvokeWithHeaders(
    const std::string& composition, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  request.headers.Add("X-Dandelion-Raw", "1");
  for (const auto& [name, value] : headers) {
    request.headers.Add(name, value);
  }
  request.body = body;
  return request.Serialize();
}

std::string Healthz() { return "GET /healthz HTTP/1.1\r\n\r\n"; }

// Echo body for invocation responses: unmarshal and return the first item.
std::string FirstItem(const dhttp::HttpResponse& response) {
  auto sets = dfunc::UnmarshalSets(response.body);
  if (!sets.ok() || sets->empty() || (*sets)[0].items.empty()) {
    return "<unmarshal failed>";
  }
  return (*sets)[0].items[0].data.ToString();
}

// A compute function that holds an engine worker for a while before
// echoing — stands in for a genuinely slow invocation.
dbase::Status SlowEcho(dfunc::FunctionCtx& ctx) {
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  return dfunc::EchoFunction(ctx);
}

// Runs until cancelled (or a 2 s backstop): observes client-disconnect
// cancellation from inside the sandbox.
dbase::Status HoldUntilCancelled(dfunc::FunctionCtx& ctx) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ctx.cancelled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return dfunc::EchoFunction(ctx);
}

class FrontendFixture {
 public:
  explicit FrontendFixture(FrontendConfig config = FrontendConfig{})
      : platform_(FastPlatformConfig()), frontend_(&platform_, config) {
    EXPECT_TRUE(platform_.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    EXPECT_TRUE(platform_.RegisterFunction({.name = "slow", .body = SlowEcho}).ok());
    EXPECT_TRUE(
        platform_.RegisterFunction({.name = "hold", .body = HoldUntilCancelled}).ok());
    EXPECT_TRUE(platform_
                    .RegisterCompositionDsl(R"(
composition Id(in) => out { echo(in = all in) => (out = out); }
composition Slow(in) => out { slow(in = all in) => (out = out); }
composition Hold(in) => out { hold(in = all in) => (out = out); }
)")
                    .ok());
    started_ = frontend_.Start();
  }

  bool skipped() const { return !started_.ok(); }
  std::string skip_reason() const { return started_.ToString(); }
  uint16_t port() const { return frontend_.port(); }
  Platform& platform() { return platform_; }

 private:
  Platform platform_;
  HttpFrontend frontend_;
  dbase::Status started_;
};

#define SKIP_WITHOUT_LOOPBACK(fixture)                                   \
  if ((fixture).skipped()) {                                             \
    GTEST_SKIP() << "loopback sockets unavailable: " << (fixture).skip_reason(); \
  }

TEST(FrontendTest, KeepAliveReusesOneSocket) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  std::string carry;
  SendAll(fd, RawInvoke("Id", "first"));
  auto first = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);
  EXPECT_EQ(FirstItem(*first), "first");

  // Same socket, second request: the connection survived the first
  // response instead of being closed per-request.
  SendAll(fd, RawInvoke("Id", "second"));
  auto second = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status_code, 200);
  EXPECT_EQ(FirstItem(*second), "second");
  close(fd);
}

TEST(FrontendTest, PipelinedRequestsAnsweredInOrder) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  // All requests on the wire before any response is read. The first runs
  // on the slow path, so later completions finish first internally — the
  // responses must still come back in request order.
  std::string burst = RawInvoke("Slow", "a");
  for (const char* payload : {"b", "c", "d"}) {
    burst += RawInvoke("Id", payload);
  }
  SendAll(fd, burst);

  std::string carry;
  for (const char* expected : {"a", "b", "c", "d"}) {
    auto response = ReadOneResponse(fd, &carry);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(FirstItem(*response), expected);
  }
  close(fd);
}

TEST(FrontendTest, PipelineDeeperThanBackpressureLimitFullyAnswered) {
  // Pipeline more inline-answered requests than the backpressure depth in
  // one write: capacity re-opens as slots complete inline, and every
  // buffered request must still be parsed and answered (no EPOLLIN edge
  // will fire again for bytes already read).
  FrontendConfig config;
  config.max_pipeline_depth = 4;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  constexpr int kRequests = 11;
  const int fd = ConnectTo(fixture.port());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += Healthz();
  }
  SendAll(fd, burst);
  std::string carry;
  for (int i = 0; i < kRequests; ++i) {
    auto response = ReadOneResponse(fd, &carry);
    ASSERT_TRUE(response.ok()) << "response " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
  }
  close(fd);
}

TEST(FrontendTest, ConcurrentClientsEachGetTheirOwnResponses) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  constexpr int kClients = 16;
  constexpr int kRequestsPerClient = 4;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &failures, c] {
      const int fd = ConnectTo(fixture.port());
      std::string carry;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::string payload =
            "client-" + std::to_string(c) + "-req-" + std::to_string(r);
        SendAll(fd, RawInvoke("Id", payload));
        auto response = ReadOneResponse(fd, &carry);
        if (!response.ok() || response->status_code != 200 ||
            FirstItem(*response) != payload) {
          ++failures[c];
        }
      }
      close(fd);
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

TEST(FrontendTest, SlowInvocationDoesNotDelayHealthzOnAnotherConnection) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  // Start a slow invocation but do not read its response yet.
  const int slow_fd = ConnectTo(fixture.port());
  SendAll(slow_fd, RawInvoke("Slow", "held"));

  // While it runs on an engine worker, /healthz on a second connection
  // must answer immediately — the loop thread never blocks on engine work.
  const int health_fd = ConnectTo(fixture.port());
  const dbase::Stopwatch watch;
  SendAll(health_fd, Healthz());
  std::string health_carry;
  auto health = ReadOneResponse(health_fd, &health_carry);
  const dbase::Micros health_latency = watch.ElapsedMicros();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  // The slow function holds its worker for 400 ms; well under half of that
  // proves /healthz was not serialized behind it.
  EXPECT_LT(health_latency, 200 * dbase::kMicrosPerMilli);
  close(health_fd);

  std::string slow_carry;
  auto slow = ReadOneResponse(slow_fd, &slow_carry);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->status_code, 200);
  EXPECT_EQ(FirstItem(*slow), "held");
  close(slow_fd);
}

TEST(FrontendTest, SlowlorisConnectionTimedOutWithoutStallingHealthz) {
  FrontendConfig config;
  config.idle_timeout = 150 * dbase::kMicrosPerMilli;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  // A client that sends a partial header and then goes silent.
  const int slow_fd = ConnectTo(fixture.port());
  SendAll(slow_fd, "GET /hea");

  // Healthy traffic is unaffected while the slow client idles.
  const int health_fd = ConnectTo(fixture.port());
  SendAll(health_fd, Healthz());
  std::string carry;
  auto health = ReadOneResponse(health_fd, &carry);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  close(health_fd);

  // The idle timer reaps the stalled connection: the next read sees EOF
  // (no response bytes were owed). SO_RCVTIMEO bounds the wait at 5 s.
  char buffer[64];
  const ssize_t n = read(slow_fd, buffer, sizeof(buffer));
  EXPECT_EQ(n, 0) << "slowloris connection was not closed";
  close(slow_fd);
}

TEST(FrontendTest, OversizedHeaderBlockRejectedWith413) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  // 80 KiB of headers without a terminating blank line: over the 64 KiB
  // header cap (the 64 MiB limit applies to bodies only).
  std::string wire = "GET /healthz HTTP/1.1\r\n";
  while (wire.size() < 80 * 1024) {
    wire += "X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  SendAll(fd, wire);
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 413);
  close(fd);
}

TEST(FrontendTest, ConflictingContentLengthRejectedWith400) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd,
          "POST /invoke/Id HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello");
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
  close(fd);
}

TEST(FrontendTest, IdenticalDuplicateContentLengthTolerated) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd,
          "POST /invoke/Id HTTP/1.1\r\nX-Dandelion-Raw: 1\r\n"
          "Content-Length: 4\r\nContent-Length: 4\r\n\r\nping");
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(FirstItem(*response), "ping");
  close(fd);
}

TEST(FrontendTest, HalfClosedClientStillGetsItsResponse) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  // Send a complete request, then half-close: the request bytes and the
  // EOF may arrive in the same readable event, and the buffered request
  // must still be answered before the server closes.
  const int fd = ConnectTo(fixture.port());
  SendAll(fd, RawInvoke("Id", "fire-and-shutdown"));
  ASSERT_EQ(shutdown(fd, SHUT_WR), 0);

  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(FirstItem(*response), "fire-and-shutdown");
  char buffer[16];
  EXPECT_EQ(read(fd, buffer, sizeof(buffer)), 0);  // Server closed after it.
  close(fd);
}

TEST(FrontendTest, HalfCloseAfterBurstDeeperThanBackpressureAnswersEverything) {
  // The client's data and EOF can arrive together with more requests
  // buffered than the pipeline depth admits; the parked tail must still be
  // answered after slots free up — EOF only means "no more requests", not
  // "drop the ones already delivered".
  FrontendConfig config;
  config.max_pipeline_depth = 2;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  constexpr int kRequests = 5;
  const int fd = ConnectTo(fixture.port());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += RawInvoke("Id", "r" + std::to_string(i));
  }
  SendAll(fd, burst);
  ASSERT_EQ(shutdown(fd, SHUT_WR), 0);

  std::string carry;
  for (int i = 0; i < kRequests; ++i) {
    auto response = ReadOneResponse(fd, &carry);
    ASSERT_TRUE(response.ok()) << "response " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(FirstItem(*response), "r" + std::to_string(i));
  }
  char buffer[16];
  EXPECT_EQ(read(fd, buffer, sizeof(buffer)), 0);
  close(fd);
}

TEST(FrontendTest, TrickleSlowlorisHitsAbsoluteRequestDeadline) {
  // One header byte per interval shorter than idle_timeout defeats a pure
  // inactivity check; the absolute request deadline still reaps it.
  FrontendConfig config;
  config.idle_timeout = 150 * dbase::kMicrosPerMilli;
  config.request_timeout = 400 * dbase::kMicrosPerMilli;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  const std::string_view drip = "GET /healthz HTT";  // Never completes.
  bool closed = false;
  const dbase::Stopwatch watch;
  for (size_t i = 0; watch.ElapsedMicros() < 3 * dbase::kMicrosPerSecond; i = (i + 1) % drip.size()) {
    // MSG_NOSIGNAL: a write after the server closes must surface as EPIPE,
    // not kill the test binary with SIGPIPE.
    if (send(fd, &drip[i], 1, MSG_NOSIGNAL) <= 0) {
      closed = true;  // Server reaped us despite steady trickling.
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
  }
  EXPECT_TRUE(closed) << "trickling client was never reaped";
  // Deadline (400 ms) + reaper lag (≤ idle_timeout) + slack, not 3 s.
  EXPECT_LT(watch.ElapsedMicros(), 2 * dbase::kMicrosPerSecond);
  close(fd);
}

TEST(FrontendTest, DeadlineHeaderMapsTo504) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  // The Slow composition needs 400 ms; a 50 ms deadline must answer 504
  // near the deadline instead of waiting out the invocation.
  const dbase::Stopwatch watch;
  SendAll(fd, RawInvokeWithHeaders("Slow", "late", {{"X-Dandelion-Deadline-Ms", "50"}}));
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 504);
  EXPECT_LT(watch.ElapsedMicros(), 350 * dbase::kMicrosPerMilli);
  EXPECT_EQ(fixture.platform().dispatcher_stats().invocations_deadline_exceeded, 1u);
  close(fd);
}

TEST(FrontendTest, InvalidDeadlineAndPriorityHeadersRejected) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  std::string carry;
  SendAll(fd, RawInvokeWithHeaders("Id", "x", {{"X-Dandelion-Deadline-Ms", "soon"}}));
  auto bad_deadline = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(bad_deadline.ok()) << bad_deadline.status().ToString();
  EXPECT_EQ(bad_deadline->status_code, 400);

  SendAll(fd, RawInvokeWithHeaders("Id", "x", {{"X-Dandelion-Priority", "urgent"}}));
  auto bad_priority = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(bad_priority.ok()) << bad_priority.status().ToString();
  EXPECT_EQ(bad_priority->status_code, 400);

  // Valid values still work.
  SendAll(fd, RawInvokeWithHeaders("Id", "ok",
                                   {{"X-Dandelion-Priority", "batch"},
                                    {"X-Dandelion-Deadline-Ms", "5000"}}));
  auto good = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->status_code, 200);
  EXPECT_EQ(FirstItem(*good), "ok");
  close(fd);
}

// The largest header value would overflow ms-to-µs (undefined behaviour)
// and arm a deadline timer centuries out; it is clamped to the 24 h bound instead,
// and the invocation runs as usual.
TEST(FrontendTest, HugeDeadlineHeaderIsClamped) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  std::string carry;
  SendAll(fd, RawInvokeWithHeaders("Id", "far",
                                   {{"X-Dandelion-Deadline-Ms", "9223372036854775807"}}));
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(FirstItem(*response), "far");
  EXPECT_EQ(fixture.platform().dispatcher_stats().invocations_deadline_exceeded, 0u);
  close(fd);
}

TEST(FrontendTest, AdmissionControlShedsWith429) {
  FrontendConfig config;
  config.max_inflight_interactive = 1;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  // First request occupies the single interactive slot for 400 ms.
  const int slow_fd = ConnectTo(fixture.port());
  SendAll(slow_fd, RawInvoke("Slow", "occupies-the-slot"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // Let it admit.

  // Second request is shed immediately instead of queueing behind it.
  const int shed_fd = ConnectTo(fixture.port());
  const dbase::Stopwatch watch;
  SendAll(shed_fd, RawInvoke("Id", "shed-me"));
  std::string shed_carry;
  auto shed = ReadOneResponse(shed_fd, &shed_carry);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status_code, 429);
  EXPECT_LT(watch.ElapsedMicros(), 200 * dbase::kMicrosPerMilli);
  close(shed_fd);

  // The admitted request still completes normally.
  std::string slow_carry;
  auto slow = ReadOneResponse(slow_fd, &slow_carry);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->status_code, 200);
  close(slow_fd);

  // Capacity freed: the next interactive request is admitted again.
  const int again_fd = ConnectTo(fixture.port());
  SendAll(again_fd, RawInvoke("Id", "admitted-again"));
  std::string again_carry;
  auto again = ReadOneResponse(again_fd, &again_carry);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->status_code, 200);
  close(again_fd);
}

TEST(FrontendTest, CompositionsEndpointListsRegisteredNames) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd, "GET /compositions HTTP/1.1\r\n\r\n");
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->headers.Get("Content-Type").value_or(""), "application/json");
  EXPECT_NE(response->body.find("\"Id\""), std::string::npos) << response->body;
  EXPECT_NE(response->body.find("\"Slow\""), std::string::npos) << response->body;
  close(fd);
}

TEST(FrontendTest, StatzEndpointExposesLifecycleCounters) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  std::string carry;
  SendAll(fd, RawInvoke("Id", "warm-up"));
  auto invoked = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();
  ASSERT_EQ(invoked->status_code, 200);

  SendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  for (const char* key :
       {"\"invocations_cancelled\"", "\"invocations_deadline_exceeded\"",
        "\"inflight_interactive\"", "\"inflight_batch\"", "\"shed_429\"",
        "\"deadline_504\"", "\"compute_aborted\"", "\"open_connections\"",
        "\"control_plane\"", "\"compute_workers\"", "\"comm_workers\""}) {
    EXPECT_NE(response->body.find(key), std::string::npos) << key << " missing in\n"
                                                           << response->body;
  }
  EXPECT_NE(response->body.find("\"invocations_completed\":1"), std::string::npos)
      << response->body;
  // The default fixture runs without a control plane: /statz says so but
  // still reports the static core split.
  EXPECT_NE(response->body.find("\"enabled\":false"), std::string::npos) << response->body;
  close(fd);
}

TEST(FrontendTest, StatzReportsControlPlanePolicyAndSplit) {
  PlatformConfig platform_config = FastPlatformConfig();
  platform_config.enable_control_plane = true;
  // Long interval: decisions in this test come only from the startup ticks,
  // keeping the core split stable while we read it.
  platform_config.control_interval_us = 10 * dbase::kMicrosPerSecond;
  platform_config.elasticity_policy_factory = [] {
    return dpolicy::CreatePolicy(dpolicy::PolicyKind::kHysteresis);
  };
  Platform platform(platform_config);
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  const int fd = ConnectTo(frontend.port());
  std::string carry;
  SendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find("\"enabled\":true"), std::string::npos) << response->body;
  EXPECT_NE(response->body.find("\"policy\":\"hysteresis\""), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"shifts_toward_compute\""), std::string::npos)
      << response->body;
  close(fd);
  frontend.Stop();
}

// An elasticity policy whose name and decision reason carry JSON
// metacharacters, the way a user-supplied policy object may.
class QuotingPolicy : public dpolicy::ElasticityPolicy {
 public:
  const char* name() const override { return "quote\"back\\slash"; }
  dpolicy::ElasticityDecision Decide(const dpolicy::ElasticitySignals&) override {
    dpolicy::ElasticityDecision decision;
    decision.reason = "held \"steady\" \\ idle";
    return decision;
  }
};

TEST(FrontendTest, StatzEscapesUserSuppliedPolicyStrings) {
  PlatformConfig platform_config = FastPlatformConfig();
  platform_config.enable_control_plane = true;
  // Long interval: the only decision is the StepOnce below.
  platform_config.control_interval_us = 10 * dbase::kMicrosPerSecond;
  platform_config.elasticity_policy_factory = [] { return std::make_unique<QuotingPolicy>(); };
  Platform platform(platform_config);
  platform.control_plane()->StepOnce();

  HttpFrontend frontend(&platform, FrontendConfig{});
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const int fd = ConnectTo(frontend.port());
  std::string carry;
  SendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find(R"("policy":"quote\"back\\slash")"), std::string::npos)
      << response->body;

  // The document parses with the same parser bench_e2e reads /statz with,
  // and the keys after each escaped string are intact.
  const std::optional<e2e::Json> statz = e2e::JsonParser::Parse(response->body);
  ASSERT_TRUE(statz.has_value()) << response->body;
  const e2e::Json* control = statz->Find("control_plane");
  ASSERT_NE(control, nullptr);
  ASSERT_NE(control->Find("policy"), nullptr);
  EXPECT_EQ(control->Find("policy")->string, "quote\"back\\slash");
  EXPECT_NE(control->Find("compute_workers"), nullptr);
  EXPECT_NE(control->Find("shifts_toward_comm"), nullptr);
  const e2e::Json* last = control->Find("last_decision");
  ASSERT_NE(last, nullptr);
  ASSERT_NE(last->Find("reason"), nullptr);
  EXPECT_EQ(last->Find("reason")->string, "held \"steady\" \\ idle");
  EXPECT_NE(statz->Find("jail"), nullptr);
  close(fd);
  frontend.Stop();
}

// A user-supplied policy whose control signal is not a number.
class NanSignalPolicy : public dpolicy::ElasticityPolicy {
 public:
  const char* name() const override { return "nan-signal"; }
  dpolicy::ElasticityDecision Decide(const dpolicy::ElasticitySignals&) override {
    dpolicy::ElasticityDecision decision;
    decision.signal = std::numeric_limits<double>::quiet_NaN();
    decision.reason = "idle";
    return decision;
  }
};

std::string GetStatz(uint16_t port) {
  const int fd = ConnectTo(port);
  std::string carry;
  SendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
  auto response = ReadOneResponse(fd, &carry);
  close(fd);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) {
    return "";
  }
  EXPECT_EQ(response->status_code, 200);
  return response->body;
}

TEST(FrontendTest, StatzWritesNonFiniteSignalAsNull) {
  PlatformConfig platform_config = FastPlatformConfig();
  platform_config.enable_control_plane = true;
  // Long interval: the only decision is the StepOnce below.
  platform_config.control_interval_us = 10 * dbase::kMicrosPerSecond;
  platform_config.elasticity_policy_factory = [] { return std::make_unique<NanSignalPolicy>(); };
  Platform platform(platform_config);
  platform.control_plane()->StepOnce();

  HttpFrontend frontend(&platform, FrontendConfig{});
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const std::string body = GetStatz(frontend.port());
  EXPECT_NE(body.find(R"("signal":null)"), std::string::npos) << body;
  // RFC 8259 has no NaN or infinity. Checked on the raw text: the e2e
  // parser reads numbers with strtod, which would accept "nan".
  const std::string lower = dbase::ToLowerAscii(body);
  for (const char* token : {":nan", ":-nan", ":+nan", ":inf", ":-inf", ":+inf"}) {
    EXPECT_EQ(lower.find(token), std::string::npos) << token << " in\n" << body;
  }
  EXPECT_TRUE(e2e::JsonParser::Parse(body).has_value()) << body;
  frontend.Stop();
}

// Flattens a JSON document into "path:type" lines in document order, so one
// comparison pins the key tree, every value's type and the key order. Keys
// join the path with '.', array elements add "[]". Expects a document the
// e2e parser accepts.
class JsonSchema {
 public:
  static std::vector<std::string> Of(std::string_view text) {
    JsonSchema schema(text);
    schema.Value("");
    return std::move(schema.lines_);
  }

 private:
  explicit JsonSchema(std::string_view text) : text_(text) {}

  char Peek() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  std::string String() {
    std::string out;
    ++pos_;  // Opening quote.
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      out.push_back(text_[pos_++]);
    }
    ++pos_;  // Closing quote.
    return out;
  }
  void Value(const std::string& path) {
    const char c = Peek();
    if (c == '{' || c == '[') {
      lines_.push_back(path + (c == '{' ? ":object" : ":array"));
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      while (Peek() != close) {
        if (c == '{') {
          const std::string key = String();
          Peek();
          ++pos_;  // ':'
          Value(path.empty() ? key : path + "." + key);
        } else {
          Value(path + "[]");
        }
        if (Peek() == ',') {
          ++pos_;
        }
      }
      ++pos_;
      return;
    }
    if (c == '"') {
      String();
      lines_.push_back(path + ":string");
      return;
    }
    const std::string_view rest = text_.substr(pos_);
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (rest.starts_with(literal)) {
        pos_ += literal.size();
        lines_.push_back(path + (literal == "null" ? ":null" : ":bool"));
        return;
      }
    }
    while (pos_ < text_.size() && std::strchr("+-.0123456789eE", text_[pos_]) != nullptr) {
      ++pos_;
    }
    lines_.push_back(path + ":number");
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<std::string> lines_;
};

// The /statz schema: every key, its nesting, its JSON type and its order,
// for a frontend with a control plane (one decision) and an attached
// cluster with one remote node. Tests,
// benches (bench/e2e reads frontend.shed_429) and operators read these
// keys; changing one is a deliberate schema change.
const std::vector<std::string> kStatzSchema = {
    ":object",
    "engine:object",
    "engine.compute_tasks:number",
    "engine.comm_tasks:number",
    "engine.compute_aborted:number",
    "engine.comm_aborted:number",
    "engine.compute_queue_len:number",
    "engine.comm_queue_len:number",
    "engine.compute_workers:number",
    "engine.comm_workers:number",
    "engine.child_cpu_p50_us:number",
    "engine.child_cpu_p99_us:number",
    "dispatcher:object",
    "dispatcher.invocations_started:number",
    "dispatcher.invocations_completed:number",
    "dispatcher.invocations_failed:number",
    "dispatcher.invocations_cancelled:number",
    "dispatcher.invocations_deadline_exceeded:number",
    "dispatcher.compute_instances:number",
    "dispatcher.comm_instances:number",
    "dispatcher.skipped_instances:number",
    "dispatcher.inflight_interactive:number",
    "dispatcher.inflight_batch:number",
    "frontend:object",
    "frontend.open_connections:number",
    "frontend.inflight_interactive:number",
    "frontend.inflight_batch:number",
    "frontend.served:number",
    "frontend.shed_429:number",
    "frontend.deadline_504:number",
    "frontend.disconnect_cancelled:number",
    "data_plane:object",
    "data_plane.bytes_copied:number",
    "data_plane.bytes_aliased:number",
    "data_plane.binding_materializations:number",
    "control_plane:object",
    "control_plane.enabled:bool",
    "control_plane.policy:string",
    "control_plane.compute_workers:number",
    "control_plane.comm_workers:number",
    "control_plane.decisions:number",
    "control_plane.shifts_toward_compute:number",
    "control_plane.shifts_toward_comm:number",
    "control_plane.last_decision:object",
    "control_plane.last_decision.time_us:number",
    "control_plane.last_decision.signal:number",
    "control_plane.last_decision.shift_toward_compute:number",
    "control_plane.last_decision.shifted:number",
    "control_plane.last_decision.panic:bool",
    "control_plane.last_decision.reason:string",
    "jail:object",
    "jail.seccomp_filter:bool",
    "jail.enabled:bool",
    "jail.detail:string",
    "faults:object",
    "faults.child_crash_before_outcome:object",
    "faults.child_crash_before_outcome.armed:bool",
    "faults.child_crash_before_outcome.crossings:number",
    "faults.child_crash_before_outcome.fired:number",
    "faults.child_crash_after_partial_write:object",
    "faults.child_crash_after_partial_write.armed:bool",
    "faults.child_crash_after_partial_write.crossings:number",
    "faults.child_crash_after_partial_write.fired:number",
    "faults.child_forbidden_syscall:object",
    "faults.child_forbidden_syscall.armed:bool",
    "faults.child_forbidden_syscall.crossings:number",
    "faults.child_forbidden_syscall.fired:number",
    "faults.transient_resource_exhausted:object",
    "faults.transient_resource_exhausted.armed:bool",
    "faults.transient_resource_exhausted.crossings:number",
    "faults.transient_resource_exhausted.fired:number",
    "retries:object",
    "retries.sandbox_failures:number",
    "retries.attempted:number",
    "retries.denied:number",
    "breaker:object",
    "breaker.fast_fails:number",
    "breaker.trips:number",
    "breaker.recoveries:number",
    "breaker.open:number",
    "breaker.functions:object",
    "cluster:object",
    "cluster.enabled:bool",
    "cluster.reroutes_shed:number",
    "cluster.reroutes_peer_lost:number",
    "cluster.reroute_denied:number",
    "cluster.no_eligible_node:number",
    "cluster.gossip_rounds:number",
    "cluster.members_suspected:number",
    "cluster.members_evicted:number",
    "cluster.members_rejoined:number",
    "cluster.peers:object",
    "cluster.peers.nr:object",
    "cluster.peers.nr.remote:bool",
    "cluster.peers.nr.state:string",
    "cluster.peers.nr.served:number",
    "cluster.peers.nr.inflight:number",
    "cluster.peers.nr.invokes_sent:number",
    "cluster.peers.nr.sheds_received:number",
    "cluster.peers.nr.peer_lost_failures:number",
    "cluster.peers.nr.bytes_sent:number",
    "cluster.peers.nr.bytes_received:number",
    "cluster.peers.nr.gossip_age_us:number",
    "cluster.peers.nr.remote_inflight:number",
    "cluster.peers.nr.remote_admission_cap:number",
    "cluster.peers.nr.utilization:number",
};

TEST(FrontendTest, StatzSchemaIsPinned) {
  Platform node_platform(FastPlatformConfig());
  ASSERT_TRUE(node_platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(node_platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  NodeAgent agent(&node_platform, NodeAgentConfig{.node_name = "nr"});
  const dbase::Status agent_started = agent.Start();
  if (!agent_started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << agent_started.ToString();
  }
  Cluster::Config cluster_config;
  cluster_config.num_nodes = 0;
  cluster_config.remote_nodes = {{"nr", agent.port()}};
  cluster_config.node_config = FastPlatformConfig();
  cluster_config.gossip_interval_us = 0;
  Cluster cluster(cluster_config);

  PlatformConfig platform_config = FastPlatformConfig();
  platform_config.enable_control_plane = true;
  // Long interval: the only decision is the StepOnce below.
  platform_config.control_interval_us = 10 * dbase::kMicrosPerSecond;
  Platform platform(platform_config);
  platform.control_plane()->StepOnce();

  HttpFrontend frontend(&platform, FrontendConfig{});
  frontend.AttachCluster(&cluster);
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const std::string body = GetStatz(frontend.port());
  ASSERT_TRUE(e2e::JsonParser::Parse(body).has_value()) << body;
  const std::vector<std::string> schema = JsonSchema::Of(body);
  std::string listing;
  for (const std::string& line : schema) {
    listing += "    \"" + line + "\",\n";
  }
  EXPECT_EQ(schema, kStatzSchema) << "/statz schema now:\n" << listing;
  frontend.Stop();
}

TEST(FrontendTest, ClientDisconnectCancelsInFlightInvocation) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd, RawInvoke("Hold", "abandoned"));
  // Wait until the invocation is actually running in an engine.
  const dbase::Micros start_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (fixture.platform().dispatcher_stats().invocations_started == 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < start_deadline) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Abort the connection with an RST (SO_LINGER 0) — a vanished client,
  // not a polite half-close.
  linger hard_close{};
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close)), 0);
  close(fd);

  // The frontend must cancel the orphaned invocation instead of letting it
  // run its 2 s course.
  const dbase::Micros cancel_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (fixture.platform().dispatcher_stats().invocations_cancelled == 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < cancel_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fixture.platform().dispatcher_stats().invocations_cancelled, 1u);
}

// The admission slot is the client's until its invocation ends, and a
// vanished client's invocation ends at once: the cancel's stop hook fails
// it instead of waiting out the 500 ms comm call it is parked on.
TEST(FrontendTest, DisconnectReleasesAdmissionSlotAtOnce) {
  PlatformConfig platform_config = FastPlatformConfig();
  platform_config.sleep_for_modeled_latency = true;  // The comm call really parks.
  Platform platform(platform_config);
  platform.mesh().Register(
      "slow.internal", std::make_shared<dhttp::EchoService>(),
      dhttp::LatencyModel{.base_us = 500 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                          .jitter_sigma = 0.0});
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Call(req) => resp { HTTP(Request = each req) => (resp = "
                      "Response); }")
                  .ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const auto inflight_interactive = [&frontend]() -> double {
    const std::optional<e2e::Json> statz = e2e::JsonParser::Parse(GetStatz(frontend.port()));
    if (!statz.has_value() || statz->Find("frontend") == nullptr ||
        statz->Find("frontend")->Find("inflight_interactive") == nullptr) {
      return -1;
    }
    return statz->Find("frontend")->Find("inflight_interactive")->number;
  };

  dhttp::HttpRequest call;
  call.method = dhttp::Method::kPost;
  call.target = "http://slow.internal/";
  call.body = "ping";
  const int fd = ConnectTo(frontend.port());
  SendAll(fd, RawInvoke("Call", call.Serialize()));
  const dbase::Micros park_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (platform.engine_stats().comm_inflight == 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(platform.engine_stats().comm_inflight, 1u) << "the call never parked";
  EXPECT_EQ(inflight_interactive(), 1.0);

  linger hard_close{};
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close)), 0);
  const dbase::Micros closed_us = dbase::MonotonicClock::Get()->NowMicros();
  close(fd);
  while (inflight_interactive() != 0.0 &&
         dbase::MonotonicClock::Get()->NowMicros() < closed_us + 2 * dbase::kMicrosPerSecond) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(inflight_interactive(), 0.0);
  EXPECT_LT(dbase::MonotonicClock::Get()->NowMicros() - closed_us, 100 * dbase::kMicrosPerMilli)
      << "the slot was held until the comm call's latency ran out";
  EXPECT_EQ(platform.dispatcher_stats().invocations_cancelled, 1u);
  frontend.Stop();
}

// The two rejects that come after admission, an unknown composition and a
// body that does not unmarshal, drop their unrun completion, which frees
// the class slot: with one interactive slot, a good request right after
// them is admitted, not shed.
TEST(FrontendTest, RequestRejectedAfterAdmissionFreesItsSlot) {
  FrontendConfig config;
  config.max_inflight_interactive = 1;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  dhttp::HttpRequest malformed;
  malformed.method = dhttp::Method::kPost;
  malformed.target = "/invoke/Id";
  malformed.body = "not a marshalled set list";
  const std::pair<std::string, int> requests[] = {
      {RawInvoke("NoSuchComposition", "x"), 404},
      {malformed.Serialize(), 400},
      {RawInvoke("Id", "admitted"), 200},
  };
  const int fd = ConnectTo(fixture.port());
  std::string carry;
  for (const auto& [request, status_code] : requests) {
    SendAll(fd, request);
    auto response = ReadOneResponse(fd, &carry);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, status_code) << response->body;
  }
  close(fd);

  const std::optional<e2e::Json> statz = e2e::JsonParser::Parse(GetStatz(fixture.port()));
  ASSERT_TRUE(statz.has_value());
  ASSERT_NE(statz->Find("frontend"), nullptr);
  ASSERT_NE(statz->Find("frontend")->Find("inflight_interactive"), nullptr);
  EXPECT_EQ(statz->Find("frontend")->Find("inflight_interactive")->number, 0.0);
}

// kUnavailable is the platform declining to serve now (here: no eligible
// cluster node), not a crashing function: 503, not 500.
TEST(FrontendTest, UnavailableAnswers503) {
  Platform node_platform(FastPlatformConfig());
  NodeAgent agent(&node_platform, NodeAgentConfig{.node_name = "gone"});
  const dbase::Status agent_started = agent.Start();
  if (!agent_started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << agent_started.ToString();
  }
  Cluster::Config cluster_config;
  cluster_config.num_nodes = 0;
  cluster_config.remote_nodes = {{"gone", agent.port()}};
  cluster_config.node_config = FastPlatformConfig();
  cluster_config.gossip_interval_us = 0;
  Cluster cluster(cluster_config);
  cluster.RemoveRemoteNode("gone");

  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  frontend.AttachCluster(&cluster);
  const dbase::Status started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const int fd = ConnectTo(frontend.port());
  std::string carry;
  SendAll(fd, RawInvoke("Id", "nowhere to go"));
  auto response = ReadOneResponse(fd, &carry);
  close(fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 503) << response->body;
  EXPECT_EQ(cluster.Stats().no_eligible_node, 1u);
  frontend.Stop();
}

// Holds an engine worker for 50 ms and ignores cancellation, so its
// completion always lands after the frontend that dispatched it is gone.
dbase::Status Nap50(dfunc::FunctionCtx& ctx) {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return dfunc::EchoFunction(ctx);
}

// Destroying the frontend mid-invocation: the completion still fires on an
// engine thread afterwards and must touch nothing the frontend owned (the
// ASan lane turns a use-after-free here into a failure).
TEST(FrontendTest, DestroyedWithAnInvokeInFlightIsNeverCalledBack) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "nap50", .body = Nap50}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Nap50(in) => out { nap50(in = all in) => (out = out); }")
                  .ok());
  auto frontend = std::make_unique<HttpFrontend>(&platform, FrontendConfig{});
  const dbase::Status started = frontend->Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  const int fd = ConnectTo(frontend->port());
  SendAll(fd, RawInvoke("Nap50", "late"));
  const dbase::Micros start_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (platform.dispatcher_stats().invocations_started == 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < start_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(platform.dispatcher_stats().invocations_started, 1u);

  frontend.reset();
  // The connection went with the frontend: no response, just the close.
  char buffer[16];
  EXPECT_LE(read(fd, buffer, sizeof(buffer)), 0);

  // Wait out the invocation, whose completion runs after the frontend died.
  const auto terminal = [&platform] {
    const DispatcherStats stats = platform.dispatcher_stats();
    return stats.invocations_completed + stats.invocations_failed +
           stats.invocations_cancelled;
  };
  const dbase::Micros end_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (terminal() == 0 && dbase::MonotonicClock::Get()->NowMicros() < end_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(terminal(), 1u);
  platform.Shutdown();  // Joins the engine that ran the completion.
  close(fd);
}

// Beyond max_connections, a new connection is answered 503 straight from
// the accept path and closed: the client reads the response, then EOF.
TEST(FrontendTest, ConnectionBeyondLimitGets503ThenEof) {
  FrontendConfig config;
  config.max_connections = 2;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  std::vector<int> admitted;
  for (int i = 0; i < 2; ++i) {
    admitted.push_back(ConnectTo(fixture.port()));
    std::string carry;
    SendAll(admitted.back(), Healthz());
    auto response = ReadOneResponse(admitted.back(), &carry);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
  }
  const int refused = ConnectTo(fixture.port());
  std::string carry;
  auto response = ReadOneResponse(refused, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 503);
  EXPECT_NE(response->body.find("connection limit"), std::string::npos);
  char byte = 0;
  EXPECT_EQ(read(refused, &byte, 1), 0);
  close(refused);
  for (int fd : admitted) {
    close(fd);
  }
}

TEST(FrontendTest, ConnectionCloseHonored) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  // The server closes its side after the response.
  char buffer[16];
  EXPECT_EQ(read(fd, buffer, sizeof(buffer)), 0);
  close(fd);
}

// ------------------------------------------------------------ Body ingest

// A request whose body still misses more than one read chunk once its head
// is parsed goes to body mode: the rest of the body is read from the socket
// straight into a region of its own.

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng());
  }
  return bytes;
}

std::string MarshalledInvoke(const std::string& composition, const std::string& payload) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  request.body = dfunc::MarshalSets({DataSet{"in", {DataItem{"", payload}}}});
  return request.Serialize();
}

TEST(FrontendTest, LargeBodyWrittenInRandomPiecesEchoesByteIdentical) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const std::string payload = RandomBytes(1 << 20, 7);
  const std::string wire = MarshalledInvoke("Id", payload);
  const int fd = ConnectTo(fixture.port());
  std::mt19937 rng(11);
  std::uniform_int_distribution<size_t> piece(1, 4096);
  for (size_t offset = 0; offset < wire.size();) {
    const size_t n = std::min(piece(rng), wire.size() - offset);
    SendAll(fd, wire.substr(offset, n));
    offset += n;
  }
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_TRUE(FirstItem(*response) == payload) << "echo differs from the 1 MiB payload";
  close(fd);
}

TEST(FrontendTest, LargeBodyAndPipelinedHealthzInOneWriteAnsweredInOrder) {
  FrontendFixture fixture;
  SKIP_WITHOUT_LOOPBACK(fixture);

  const std::string payload = RandomBytes(300 * 1024, 3);
  const int fd = ConnectTo(fixture.port());
  SendAll(fd, RawInvoke("Id", payload) + Healthz());
  std::string carry;
  auto first = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);
  EXPECT_TRUE(FirstItem(*first) == payload);
  auto second = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status_code, 200);
  EXPECT_EQ(second->body, "ok\n");
  close(fd);
}

TEST(FrontendTest, ClientClosingMidBodyReleasesItsBudgetShare) {
  // The abandoned upload lands 900 KiB of its body before the client
  // closes. A whole 1 MiB request does not fit beside that under this
  // budget, so the second request only succeeds if the abandoned one gave
  // its share back.
  FrontendConfig config;
  config.max_total_buffered_bytes = 1536 * 1024;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  const std::string payload = RandomBytes(1 << 20, 5);
  const std::string wire = RawInvoke("Id", payload);
  const int abandoned = ConnectTo(fixture.port());
  SendAll(abandoned, wire.substr(0, 900 * 1024));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  close(abandoned);
  // Wait until the reactor has closed it: then only the /statz
  // connection itself is open.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (GetStatz(fixture.port()).find("\"open_connections\":1,") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "the abandoned connection never closed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const int fd = ConnectTo(fixture.port());
  SendAll(fd, wire);
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200) << response->body;
  EXPECT_TRUE(FirstItem(*response) == payload);
  close(fd);
}

TEST(FrontendTest, BufferedBytesPastTheBudgetAnswer503) {
  // An unterminated head longer than the whole buffering budget: the read
  // that tips the budget fails its connection.
  FrontendConfig config;
  config.max_total_buffered_bytes = 4096;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  const int fd = ConnectTo(fixture.port());
  SendAll(fd, "GET /healthz HTTP/1.1\r\nX-Pad: " + std::string(8192, 'a'));
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 503);
  EXPECT_NE(response->body.find("request buffers full"), std::string::npos) << response->body;
  close(fd);

  // The budget is whole again for the next client.
  const int next = ConnectTo(fixture.port());
  SendAll(next, Healthz());
  carry.clear();
  auto ok = ReadOneResponse(next, &carry);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status_code, 200);
  close(next);
}

TEST(FrontendTest, HeadAnnouncingMoreThanTheBudgetGets503AtOnce) {
  FrontendConfig config;
  config.max_total_buffered_bytes = 64 * 1024;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  // A head alone, no body byte. A request larger than the whole budget
  // could never be buffered, so the head draws the 503 when it is parsed,
  // not when (or if) the body arrives.
  const int fd = ConnectTo(fixture.port());
  const auto start = std::chrono::steady_clock::now();
  SendAll(fd, "POST /invoke/Id HTTP/1.1\r\nX-Dandelion-Raw: 1\r\nContent-Length: 1048576\r\n\r\n");
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 503);
  EXPECT_NE(response->body.find("request buffers full"), std::string::npos) << response->body;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  close(fd);
}

TEST(FrontendTest, AnnouncedButUnsentBodiesDoNotStarveOtherClients) {
  // Body bytes are charged as they land, not as announced: heads that
  // promise large bodies and send none hold only their own bytes of the
  // budget, so a small request on another connection is still served.
  // Any one of these announcements, charged up front, would leave too
  // little of the budget for it.
  FrontendConfig config;
  config.max_total_buffered_bytes = 1 << 20;
  FrontendFixture fixture(config);
  SKIP_WITHOUT_LOOPBACK(fixture);

  std::vector<int> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(ConnectTo(fixture.port()));
    SendAll(idle.back(),
            "POST /invoke/Id HTTP/1.1\r\nX-Dandelion-Raw: 1\r\nContent-Length: 1000000\r\n\r\n");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::string payload = RandomBytes(100 * 1024, 9);
  const int fd = ConnectTo(fixture.port());
  SendAll(fd, RawInvoke("Id", payload));
  std::string carry;
  auto response = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200) << response->body;
  EXPECT_TRUE(FirstItem(*response) == payload);
  close(fd);
  for (const int conn : idle) {
    close(conn);
  }
}

}  // namespace
}  // namespace dandelion
