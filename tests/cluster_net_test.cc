// Distributed data-plane tests: real TCP node wire between a Cluster
// router and engine nodes (in-process NodeAgents and spawned
// dandelion_node daemons), covering remote invocation end-to-end,
// zero-copy accounting, cross-node shedding, peer-loss absorption via the
// retry taxonomy, routed cancel (handle and client disconnect),
// gossip-driven membership (suspect → evict → rejoin), the gossiped node
// status, mesh calls carried over the wire, protocol hygiene against
// hostile frames, the statz cluster section, the spawned node's flag
// validation, boot handshake, self-contained binary and jailed process
// backend, and the router's join at AddPeer.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <libgen.h>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/thread.h"
#include "src/func/builtins.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/http/sanitizer.h"
#include "src/http/services.h"
#include "src/net/node_client.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/runtime/cluster.h"
#include "src/runtime/frontend.h"
#include "src/runtime/node_agent.h"
#include "src/runtime/platform.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

PlatformConfig FastPlatformConfig() {
  PlatformConfig config;
  config.num_workers = 2;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList EchoArgs(std::string value) {
  DataSetList args;
  args.push_back(DataSet{"in", {DataItem{"", std::move(value)}}});
  return args;
}

// Holds an engine worker for 500 ms before echoing — the occupier for
// shed, peer-loss and cancel scenarios. The nap ends early once the
// invocation is cancelled, so a cancel is visible well before 500 ms.
dbase::Status NapEcho(dfunc::FunctionCtx& ctx) {
  const auto wake = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (!ctx.cancelled() && std::chrono::steady_clock::now() < wake) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return dfunc::EchoFunction(ctx);
}

constexpr const char* kNodeDsl = R"(
composition Id(in) => out { echo(in = all in) => (out = out); }
composition Nap(in) => out { nap(in = all in) => (out = out); }
)";

// One in-process engine node: a Platform wrapped in a NodeAgent serving
// the dnet wire on an ephemeral loopback port.
class AgentNode {
 public:
  explicit AgentNode(NodeAgentConfig config = NodeAgentConfig{})
      : platform_(FastPlatformConfig()), agent_(&platform_, config) {
    EXPECT_TRUE(platform_.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    EXPECT_TRUE(platform_.RegisterFunction({.name = "nap", .body = NapEcho}).ok());
    EXPECT_TRUE(platform_.RegisterCompositionDsl(kNodeDsl).ok());
    started_ = agent_.Start();
  }
  ~AgentNode() { agent_.Stop(); }

  bool skipped() const { return !started_.ok(); }
  std::string skip_reason() const { return started_.ToString(); }
  uint16_t port() const { return agent_.port(); }
  Platform& platform() { return platform_; }
  NodeAgent& agent() { return agent_; }

 private:
  Platform platform_;
  NodeAgent agent_;
  dbase::Status started_;
};

#define SKIP_WITHOUT_LOOPBACK(node)                                               \
  if ((node).skipped()) {                                                         \
    GTEST_SKIP() << "loopback sockets unavailable: " << (node).skip_reason();     \
  }

Cluster::Config RemoteClusterConfig(std::vector<Cluster::RemoteNode> remotes,
                                    LoadBalancePolicy policy) {
  Cluster::Config config;
  config.num_nodes = 0;
  config.policy = policy;
  config.remote_nodes = std::move(remotes);
  config.node_config = FastPlatformConfig();
  config.gossip_interval_us = 0;  // Tests drive GossipNow() by hand.
  return config;
}

const Cluster::PeerStats* FindPeer(const Cluster::ClusterStats& stats,
                                   const std::string& name) {
  for (const auto& peer : stats.peers) {
    if (peer.name == name) return &peer;
  }
  return nullptr;
}

// ------------------------------------------------------------ end-to-end

TEST(ClusterNetTest, RemoteInvokeEndToEnd) {
  AgentNode a(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);

  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));
  EXPECT_EQ(cluster.num_nodes(), 0);
  EXPECT_EQ(cluster.total_nodes(), 2);

  for (int i = 0; i < 4; ++i) {
    const std::string payload = "remote-" + std::to_string(i);
    auto routed = cluster.Invoke({"Id", EchoArgs(payload)});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), payload);
    EXPECT_EQ(routed.attempts, 1);
    EXPECT_TRUE(routed.node_name == "na" || routed.node_name == "nb") << routed.node_name;
  }
  const auto peers = cluster.Stats().peers;
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].served + peers[1].served, 4u);
  EXPECT_EQ(a.agent().invocations_served() + b.agent().invocations_served(), 4u);
}

TEST(ClusterNetTest, RemoteInvokeAddsZeroPayloadCopies) {
  constexpr size_t kPayloadBytes = 1 << 20;

  // Baseline: the same invocation on a bare Platform, no wire at all (a
  // Cluster's in-process nodes are reached over the wire too). The only
  // payload copy on this path is the sandbox boundary itself (function
  // outputs marshal into the sandbox's memory context before the aliased
  // read-back).
  uint64_t local_copied = 0;
  uint64_t local_aliased = 0;
  {
    Platform local(FastPlatformConfig());
    ASSERT_TRUE(local.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    ASSERT_TRUE(local.RegisterFunction({.name = "nap", .body = NapEcho}).ok());
    ASSERT_TRUE(local.RegisterCompositionDsl(kNodeDsl).ok());
    ASSERT_TRUE(local.Invoke({"Id", EchoArgs("warmup")}).ok());
    const auto before = dfunc::DataPlaneStats::Get().snapshot();
    auto result = local.Invoke({"Id", EchoArgs(std::string(kPayloadBytes, 'q'))});
    const auto after = dfunc::DataPlaneStats::Get().snapshot();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    local_copied = after.bytes_copied - before.bytes_copied;
    local_aliased = after.bytes_aliased - before.bytes_aliased;
  }

  AgentNode node(NodeAgentConfig{.node_name = "nz"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(
      RemoteClusterConfig({{"nz", node.port()}}, LoadBalancePolicy::kRoundRobin));
  // Warm-up: connection establishment and first-invoke setup out of the
  // measured window.
  ASSERT_TRUE(cluster.Invoke({"Id", EchoArgs("warmup")}).ok());

  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  auto routed = cluster.Invoke({"Id", EchoArgs(std::string(kPayloadBytes, 'q'))});
  const auto after = dfunc::DataPlaneStats::Get().snapshot();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed.sets()[0].items[0].data.size(), kPayloadBytes);

  // The wire is a seam of the zero-copy plane, not an excuse to copy:
  // scatter-encode → writev on the way out, aliasing unmarshal over the
  // receive buffer on the way in, at both ends. Crossing the wire must add
  // ZERO payload copies over the bare platform — only aliases (request encode
  // + decode, outcome encode + decode move the payload by reference four
  // more times).
  EXPECT_EQ(after.bytes_copied - before.bytes_copied, local_copied);
  EXPECT_GE(after.bytes_aliased - before.bytes_aliased, local_aliased + 2 * kPayloadBytes);
}

TEST(ClusterNetTest, RemoteDeadlineSurfacesAsDeadlineExceeded) {
  AgentNode node(NodeAgentConfig{.node_name = "nd"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(
      RemoteClusterConfig({{"nd", node.port()}}, LoadBalancePolicy::kRoundRobin));

  InvocationRequest request;
  request.composition = "Nap";  // Naps 500 ms; deadline is 50 ms.
  request.args = EchoArgs("late");
  request.deadline_us = InvocationRequest::DeadlineIn(50 * dbase::kMicrosPerMilli);
  auto routed = cluster.Invoke(std::move(request));
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), dbase::StatusCode::kDeadlineExceeded)
      << routed.status().ToString();
  // A deadline is the client's decision, not a node failure: no re-route.
  EXPECT_EQ(cluster.Stats().reroutes_peer_lost, 0u);
}

// --------------------------------------------------------------- shedding

TEST(ClusterNetTest, ShedPeerReroutesToSibling) {
  // Node A admits one interactive invocation at a time; node B is open.
  AgentNode a(NodeAgentConfig{.node_name = "na", .max_inflight_interactive = 1});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));

  // Occupy A (round-robin starts there) with a napping invocation.
  dbase::Latch nap_done(1);
  cluster.InvokeAsync({"Nap", EchoArgs("occupy")},
                      [&](dbase::Result<DataSetList> result, int node) {
                        EXPECT_TRUE(result.ok()) << result.status().ToString();
                        EXPECT_EQ(node, 0);
                        nap_done.CountDown();
                      });
  const auto arrived = [&] {
    return a.platform().dispatcher_stats().invocations_started >= 1;
  };
  for (int i = 0; i < 500 && !arrived(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(arrived()) << "occupier never reached node A";

  // Round-robin sends this one to B directly.
  auto direct = cluster.Invoke({"Id", EchoArgs("direct")});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct.node_name, "nb");

  // This one is aimed at A, which sheds at its cap — the router re-routes
  // it once to B instead of surfacing the 429-equivalent.
  auto rerouted = cluster.Invoke({"Id", EchoArgs("rerouted")});
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_EQ(rerouted.node_name, "nb");
  EXPECT_EQ(rerouted.attempts, 2);

  const auto stats = cluster.Stats();
  EXPECT_EQ(stats.reroutes_shed, 1u);
  const auto* peer_a = FindPeer(stats, "na");
  ASSERT_NE(peer_a, nullptr);
  EXPECT_GE(peer_a->sheds_received, 1u);
  EXPECT_GE(a.agent().invocations_shed(), 1u);

  ASSERT_TRUE(nap_done.WaitFor(5 * dbase::kMicrosPerSecond));
}

// -------------------------------------------------------------- peer loss

TEST(ClusterNetTest, PeerLossMidInvokeReroutesToSurvivor) {
  auto a = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(*a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a->port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));

  dbase::Latch done(1);
  std::atomic<int> served_by{-1};
  std::atomic<bool> ok{false};
  dbase::StatusCode code = dbase::StatusCode::kOk;
  cluster.InvokeAsync({"Nap", EchoArgs("survivor")},
                      [&](dbase::Result<DataSetList> result, int node) {
                        ok.store(result.ok());
                        if (!result.ok()) code = result.status().code();
                        served_by.store(node);
                        done.CountDown();
                      });
  const auto arrived = [&] {
    return a->platform().dispatcher_stats().invocations_started >= 1;
  };
  for (int i = 0; i < 500 && !arrived(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(arrived()) << "invoke never reached node A";

  // Node A dies mid-invocation. The pending invoke fails kUnavailable
  // ("peer lost"), maps to the retry-safe FailureKind::kPeerLost, and the
  // router re-runs it on B — Dandelion functions are pure, so the re-run
  // is side-effect-safe.
  a.reset();

  ASSERT_TRUE(done.WaitFor(10 * dbase::kMicrosPerSecond));
  EXPECT_TRUE(ok.load()) << dbase::StatusCodeName(code);
  EXPECT_EQ(served_by.load(), 1);

  const auto stats = cluster.Stats();
  EXPECT_GE(stats.reroutes_peer_lost, 1u);
  const auto* peer_a = FindPeer(stats, "na");
  ASSERT_NE(peer_a, nullptr);
  EXPECT_EQ(peer_a->state, "suspect");
}

// ----------------------------------------------------------------- cancel

// Polls `done` for up to `limit_ms`; true once it holds.
template <typename Predicate>
bool WaitUntil(Predicate done, int limit_ms) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(limit_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ClusterNetTest, RoutedHandleCancelReachesTheServingNode) {
  AgentNode node(NodeAgentConfig{.node_name = "nx"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(RemoteClusterConfig({{"nx", node.port()}}, LoadBalancePolicy::kRoundRobin));

  dbase::Latch done(1);
  std::atomic<int> code{-1};
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration elapsed{};
  InvocationHandle handle =
      cluster.InvokeAsync({"Nap", EchoArgs("cancel me")},
                          [&](dbase::Result<DataSetList> result, int) {
                            elapsed = std::chrono::steady_clock::now() - start;
                            code.store(static_cast<int>(result.status().code()));
                            done.CountDown();
                          });
  EXPECT_TRUE(handle.valid());
  ASSERT_TRUE(WaitUntil(
      [&] { return node.platform().dispatcher_stats().invocations_started >= 1; }, 1000))
      << "the nap never reached the node";

  handle.Cancel();
  ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(code.load(), static_cast<int>(dbase::StatusCode::kCancelled));
  EXPECT_LT(elapsed, std::chrono::milliseconds(400)) << "the nap ran to its end";
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.Report().phase, InvocationPhase::kCancelled);
  EXPECT_EQ(node.platform().dispatcher_stats().invocations_cancelled, 1u);
  // A cancel is the caller's decision, not a node failure: no re-route.
  EXPECT_EQ(cluster.Stats().reroutes_peer_lost, 0u);
}

// Every router numbers its invocations from 1, so one node serves two
// invocations with the same wire id: a cancel must reach the one its own
// router sent, and only that one.
TEST(ClusterNetTest, TwoRoutersWithEqualIdsCancelOnlyTheirOwn) {
  AgentNode node(NodeAgentConfig{.node_name = "nt"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster router_a(RemoteClusterConfig({{"nt", node.port()}}, LoadBalancePolicy::kRoundRobin));
  Cluster router_b(RemoteClusterConfig({{"nt", node.port()}}, LoadBalancePolicy::kRoundRobin));

  dbase::Latch a_done(1);
  dbase::Latch b_done(1);
  std::atomic<int> a_code{-1};
  std::atomic<int> b_code{-1};
  InvocationHandle a = router_a.InvokeAsync(
      {"Nap", EchoArgs("from a")}, [&](dbase::Result<DataSetList> result, int) {
        a_code.store(static_cast<int>(result.status().code()));
        a_done.CountDown();
      });
  InvocationHandle b = router_b.InvokeAsync(
      {"Nap", EchoArgs("from b")}, [&](dbase::Result<DataSetList> result, int) {
        b_code.store(static_cast<int>(result.status().code()));
        b_done.CountDown();
      });
  ASSERT_EQ(a.id(), b.id());
  ASSERT_TRUE(WaitUntil(
      [&] { return node.platform().dispatcher_stats().invocations_started >= 2; }, 1000))
      << "both naps never reached the node";

  a.Cancel();
  ASSERT_TRUE(a_done.WaitFor(5 * dbase::kMicrosPerSecond));
  ASSERT_TRUE(b_done.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(a_code.load(), static_cast<int>(dbase::StatusCode::kCancelled));
  EXPECT_EQ(b_code.load(), static_cast<int>(dbase::StatusCode::kOk));
  EXPECT_EQ(node.platform().dispatcher_stats().invocations_cancelled, 1u);
}

// ------------------------------------------------- multi-process peer kill

// A dandelion_node daemon spawned next to this test binary, handshaking
// its bound port over a stdout pipe. Owns the process: destruction SIGKILLs
// and reaps it, so a failed ASSERT that returns early leaves no node behind
// holding the test's stderr.
struct SpawnedNode {
  pid_t pid = -1;
  uint16_t port = 0;

  SpawnedNode() = default;
  SpawnedNode(SpawnedNode&& other) noexcept
      : pid(std::exchange(other.pid, -1)), port(other.port) {}
  SpawnedNode& operator=(SpawnedNode&&) = delete;
  ~SpawnedNode() { Kill(); }

  bool ok() const { return pid > 0 && port != 0; }
  void Kill(int signal_number = SIGKILL) {
    if (pid <= 0) return;
    kill(pid, signal_number);
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
  }
};

std::string NodeBinaryPath() {
  char exe[4096] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  std::string dir(exe, static_cast<size_t>(n));
  return std::string(dirname(dir.data())) + "/dandelion_node";
}

// Forks and execs the node binary with `flags`, its stdout on a pipe whose
// read end lands in *stdout_fd. Returns the child's pid, or -1.
pid_t ForkNode(const std::vector<std::string>& flags, int* stdout_fd) {
  const std::string binary = NodeBinaryPath();
  if (binary.empty() || access(binary.c_str(), X_OK) != 0) return -1;

  // argv is built before fork: the child of a threaded process must not
  // allocate.
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  *stdout_fd = fds[0];
  return pid;
}

SpawnedNode SpawnNode(const std::string& name,
                      const std::vector<std::string>& extra_flags = {}) {
  SpawnedNode node;
  std::vector<std::string> flags = {"--name=" + name, "--port=0", "--workers=2"};
  flags.insert(flags.end(), extra_flags.begin(), extra_flags.end());
  int out = -1;
  const pid_t pid = ForkNode(flags, &out);
  if (pid < 0) return node;
  node.pid = pid;

  // Read the "LISTENING <port>" handshake with a bounded wait.
  std::string line;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{out, POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    char buffer[128];
    const ssize_t got = read(out, buffer, sizeof(buffer));
    if (got <= 0) break;
    line.append(buffer, static_cast<size_t>(got));
    const size_t newline = line.find('\n');
    if (newline != std::string::npos) {
      unsigned port = 0;
      if (sscanf(line.c_str(), "LISTENING %u", &port) == 1) {
        node.port = static_cast<uint16_t>(port);
      }
      break;
    }
  }
  close(out);
  if (node.port == 0) node.Kill();
  return node;
}

TEST(ClusterNetTest, KilledNodeProcessIsAbsorbedByRetryPolicy) {
  SpawnedNode n0 = SpawnNode("proc0");
  if (!n0.ok()) {
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  SpawnedNode n1 = SpawnNode("proc1");
  SpawnedNode n2 = SpawnNode("proc2");
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(n2.ok());

  Cluster cluster(RemoteClusterConfig(
      {{"proc0", n0.port}, {"proc1", n1.port}, {"proc2", n2.port}},
      LoadBalancePolicy::kRoundRobin));

  // Sanity: every process answers before the kill.
  for (int i = 0; i < 3; ++i) {
    auto warm = cluster.Invoke({"Id", EchoArgs("warm")});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // A 600 ms Work invocation lands on proc0 (round-robin wrapped back);
  // SIGKILL the process while it is burning.
  dbase::Latch done(1);
  std::atomic<bool> ok{false};
  std::string failure;
  std::mutex failure_mu;
  cluster.InvokeAsync({"Work", EchoArgs("600000")},
                      [&](dbase::Result<DataSetList> result, int) {
                        ok.store(result.ok());
                        if (!result.ok()) {
                          std::lock_guard<std::mutex> lock(failure_mu);
                          failure = result.status().ToString();
                        }
                        done.CountDown();
                      });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  n0.Kill(SIGKILL);

  ASSERT_TRUE(done.WaitFor(20 * dbase::kMicrosPerSecond));
  {
    std::lock_guard<std::mutex> lock(failure_mu);
    // The killed peer is environmental (kPeerLost, retry-safe): the retry
    // policy absorbs it by re-routing — never a crash-kind 500.
    EXPECT_TRUE(ok.load()) << failure;
  }
  const auto stats = cluster.Stats();
  EXPECT_GE(stats.reroutes_peer_lost, 1u);
  EXPECT_GE(stats.remote_retry.retries_granted, 1u);

  n1.Kill(SIGTERM);
  n2.Kill(SIGTERM);
}

// ------------------------------------------------------- node boot handshake

// LISTENING means the port accepts connections; the node may still be
// building its Platform, and frames sent meanwhile wait in the kernel. So
// the very first invoke succeeds with no warm-up and no re-route.
TEST(ClusterNetTest, InvokeRightAfterListeningSucceeds) {
  SpawnedNode node = SpawnNode("early");
  if (!node.ok()) {
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  Cluster cluster(RemoteClusterConfig({{"early", node.port}}, LoadBalancePolicy::kRoundRobin));
  auto routed = cluster.Invoke({"Id", EchoArgs("first")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "first");
  EXPECT_EQ(routed.attempts, 1);
  EXPECT_EQ(cluster.Stats().reroutes_peer_lost, 0u);
  node.Kill(SIGTERM);
}

// A node that announces its port and then fails to boot is a lost peer the
// router learns about at once, not an invoke that hangs until its timeout.
TEST(ClusterNetTest, NodeFailingAfterAnnounceSurfacesPromptlyAsPeerLost) {
  // The extra composition parses, so the node announces; registering it
  // collides with the built-in Id, so the node exits right after.
  SpawnedNode node = SpawnNode(
      "doomed", {"--dsl=composition Id(in) => out { echo(in = all in) => (out = out); }"});
  if (!node.ok()) {
    // Tell "nodes cannot run here" from "the node died before announcing".
    SpawnedNode plain = SpawnNode("plain");
    const bool can_spawn = plain.ok();
    plain.Kill(SIGTERM);
    ASSERT_FALSE(can_spawn) << "the node exited before announcing its port";
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  Cluster cluster(RemoteClusterConfig({{"doomed", node.port}}, LoadBalancePolicy::kRoundRobin));
  const auto start = std::chrono::steady_clock::now();
  auto routed = cluster.Invoke({"Id", EchoArgs("nobody home")});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), dbase::StatusCode::kUnavailable)
      << routed.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // The node exits on its own, promptly: an exit that wedges (static
  // destructors racing engine threads) would strand the port.
  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 500 && reaped == 0; ++i) {
    reaped = waitpid(node.pid, &status, WNOHANG);
    if (reaped == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped != node.pid) {
    node.Kill();
    FAIL() << "the node did not exit within 5 s of failing to boot";
  }
  node.pid = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

// Malformed flags exit with status 2 before the node binds, so a typo never
// becomes a node serving on a default port, worker count or backend.
TEST(ClusterNetTest, NodeRejectsMalformedFlagsBeforeBinding) {
  const std::vector<std::string> bad_flags = {
      "--port=70000",  "--port=-1",        "--port=abc",          "--workers=abc",
      "--workers=0",   "--workers=-3",     "--interactive-cap=-1", "--batch-cap=8x",
      "--backend=procss", "--backend=kvm", "--backend=wasm", "--control-plane=yes",
      "--no-such-flag=1",
  };
  for (const std::string& flag : bad_flags) {
    int out = -1;
    const pid_t pid = ForkNode({"--name=bad", flag}, &out);
    if (pid < 0) {
      GTEST_SKIP() << "cannot spawn dandelion_node (binary missing)";
    }
    // Everything the node writes to stdout, up to EOF (its exit) or 5 s.
    std::string stdout_text;
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool eof = false;
    while (!eof && std::chrono::steady_clock::now() < give_up) {
      pollfd pfd{out, POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      char buffer[128];
      const ssize_t got = read(out, buffer, sizeof(buffer));
      if (got <= 0) {
        eof = true;
      } else {
        stdout_text.append(buffer, static_cast<size_t>(got));
      }
    }
    close(out);
    if (!eof) kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(eof) << flag << ": the node kept running";
    EXPECT_EQ(stdout_text, "") << flag;
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag;
  }
}

// The node is a static-pie image: exec maps no dynamic loader and no shared
// library. Sanitizer builds link their runtimes dynamically on purpose.
TEST(ClusterNetTest, NodeBinaryIsSelfContained) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer builds keep the node's runtimes shared";
#else
  SpawnedNode node = SpawnNode("maps");
  if (!node.ok()) {
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  std::ifstream maps("/proc/" + std::to_string(node.pid) + "/maps");
  ASSERT_TRUE(maps.is_open());
  size_t mappings = 0;
  std::string line;
  while (std::getline(maps, line)) {
    ++mappings;
    for (const char* shared : {"ld-linux", "libc.so", "libm.so", "libstdc++.so"}) {
      EXPECT_EQ(line.find(shared), std::string::npos) << line;
    }
  }
  EXPECT_GT(mappings, 0u);
  node.Kill(SIGTERM);
#endif
}

// A process-backend node forks each function into a seccomp-jailed child
// of its static image; every routed product must come back right.
TEST(ClusterNetTest, ProcessBackendNodeServesJailedMatmul) {
  SpawnedNode node = SpawnNode(
      "jailed", {"--backend=process",
                 "--dsl=composition MatMul(A, B) => C { matmul(A = all A, B = all B) => (C = C); }"});
  if (!node.ok()) {
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  Cluster cluster(RemoteClusterConfig({{"jailed", node.port}}, LoadBalancePolicy::kRoundRobin));
  constexpr int kN = 32;
  for (int i = 0; i < 20; ++i) {
    const auto a = dfunc::MakeMatrix(kN, 2 * i + 1);
    const auto b = dfunc::MakeMatrix(kN, 2 * i + 2);
    DataSetList args;
    args.push_back(DataSet{"A", {DataItem{"", dfunc::EncodeInt64Array(a)}}});
    args.push_back(DataSet{"B", {DataItem{"", dfunc::EncodeInt64Array(b)}}});
    auto routed = cluster.Invoke({"MatMul", std::move(args)});
    ASSERT_TRUE(routed.ok()) << "matmul " << i << ": " << routed.status().ToString();
    auto product = dfunc::DecodeInt64Array(routed.sets()[0].items[0].data.ToString());
    ASSERT_TRUE(product.ok()) << product.status().ToString();
    EXPECT_EQ(*product, dfunc::MultiplyMatrices(a, b, kN)) << "matmul " << i;
  }
  node.Kill(SIGTERM);
}

// ------------------------------------------------------------ router join

// The router dials and joins each peer when it adds it, so the kJoinAck is
// back before the first invoke is even sent.
TEST(ClusterNetTest, RouterJoinsEachPeerWhenItAddsIt) {
  AgentNode node(NodeAgentConfig{.node_name = "eager"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(RemoteClusterConfig({{"eager", node.port()}}, LoadBalancePolicy::kRoundRobin));
  uint64_t received = 0;
  for (int i = 0; i < 500 && received == 0; ++i) {
    const auto stats = cluster.Stats();
    const Cluster::PeerStats* peer = FindPeer(stats, "eager");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->invokes_sent, 0u);
    received = peer->bytes_received;
    if (received == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(received, 0u) << "no kJoinAck within 5 s of adding the peer";
}

// Joining a peer that is not up yet fails nothing; the first invoke after
// it comes up reconnects lazily and succeeds.
TEST(ClusterNetTest, PeerAddedBeforeItListensCostsNothing) {
  auto probe = dnet::ListenLoopback(0, 1);
  if (!probe.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << probe.status().ToString();
  }
  const auto port = dnet::BoundPort(*probe);
  close(*probe);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  Cluster cluster(RemoteClusterConfig({{"late", *port}}, LoadBalancePolicy::kRoundRobin));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // The dial fails meanwhile.
  {
    const auto stats = cluster.Stats();
    const Cluster::PeerStats* peer = FindPeer(stats, "late");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->peer_lost_failures, 0u);
    EXPECT_EQ(peer->bytes_received, 0u);
  }

  AgentNode node(NodeAgentConfig{.node_name = "late", .port = *port});
  SKIP_WITHOUT_LOOPBACK(node);
  auto routed = cluster.Invoke({"Id", EchoArgs("after boot")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "after boot");
  const auto stats = cluster.Stats();
  EXPECT_EQ(FindPeer(stats, "late")->peer_lost_failures, 0u);
  EXPECT_EQ(stats.reroutes_peer_lost, 0u);
}

// ------------------------------------------------------------- mesh calls

TEST(ClusterNetTest, MeshCallRidesTheNodeWire) {
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(b);
  // The service physically lives on node B's mesh.
  b.platform().mesh().Register("svc.internal", std::make_shared<dhttp::EchoService>());

  Cluster::Config config =
      RemoteClusterConfig({{"nb", b.port()}}, LoadBalancePolicy::kRoundRobin);
  config.num_nodes = 1;  // One local node whose mesh calls ride the wire.
  Cluster cluster(config);
  cluster.node(0).mesh().RegisterRemote("svc.internal", "nb");

  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "http://svc.internal/echo";
  request.body = "carried over dnet";
  auto sanitized = dhttp::SanitizeRequest(request.Serialize());
  ASSERT_TRUE(sanitized.ok()) << sanitized.status().ToString();

  auto result = cluster.node(0).mesh().Call(*sanitized);
  EXPECT_EQ(result.response.status_code, 200);
  EXPECT_EQ(result.response.body, "carried over dnet");
  EXPECT_EQ(cluster.node(0).mesh().remote_calls(), 1u);
  // The serving node's mesh saw the call as a local one.
  EXPECT_EQ(b.platform().mesh().total_calls(), 1u);
}

// A carried mesh call is served against the serving node's own endpoints
// only. Two nodes that each register a host as remote on the other must
// not bounce the call between them until the transport times out (and on
// the shared reactor such a re-hop would block the loop its reply needs).
TEST(ClusterNetTest, CarriedMeshCallIsServedLocallyAndNeverReHops) {
  Cluster::Config config = RemoteClusterConfig({}, LoadBalancePolicy::kRoundRobin);
  config.num_nodes = 2;
  Cluster cluster(config);
  cluster.node(0).mesh().RegisterRemote("svc.internal", "local-1");
  cluster.node(1).mesh().RegisterRemote("svc.internal", "local-0");

  dhttp::HttpRequest request;
  request.method = dhttp::Method::kGet;
  request.target = "http://svc.internal/ping";
  auto sanitized = dhttp::SanitizeRequest(request.Serialize());
  ASSERT_TRUE(sanitized.ok()) << sanitized.status().ToString();

  const dbase::Stopwatch watch;
  auto result = cluster.node(0).mesh().Call(*sanitized);
  EXPECT_LT(watch.ElapsedMicros(), 500 * dbase::kMicrosPerMilli);
  EXPECT_EQ(result.response.status_code, 502);
  EXPECT_NE(result.response.body.find("not served on local-1"), std::string::npos)
      << result.response.body;
  EXPECT_EQ(cluster.node(0).mesh().remote_calls(), 1u);
  EXPECT_EQ(cluster.node(1).mesh().remote_calls(), 0u);
}

// A blocking mesh call cannot wait on the reactor that would deliver its
// reply: made there, it fails at once instead of deadlocking the process.
TEST(ClusterNetTest, MeshCallOnTheReactorFailsFast) {
  dnet::NodeClient client("router");
  ASSERT_TRUE(client.Start().ok());
  dbase::EventLoop::Scope scope(dbase::EventLoop::Process());
  dbase::Latch done(1);
  dbase::Status status;
  scope.Post([&] {
    status = client.MeshCall("nowhere", "GET / HTTP/1.1\r\n\r\n", dbase::kMicrosPerSecond)
                 .status();
    done.CountDown();
  });
  ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(status.code(), dbase::StatusCode::kFailedPrecondition) << status.ToString();
}

// ------------------------------------------------------------- membership

TEST(ClusterNetTest, MembershipSuspectsEvictsAndReadmits) {
  auto c = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "nc"});
  SKIP_WITHOUT_LOOPBACK(*c);
  const uint16_t port = c->port();

  Cluster::Config config =
      RemoteClusterConfig({{"nc", port}}, LoadBalancePolicy::kRoundRobin);
  config.membership.suspect_after_us = 100 * dbase::kMicrosPerMilli;
  config.membership.evict_after_us = 250 * dbase::kMicrosPerMilli;
  Cluster cluster(config);

  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    const auto* peer = FindPeer(stats, "nc");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->state, "active");
    EXPECT_GE(peer->gossip_age_us, 0);
    // Interactive + batch caps, 256 each by default.
    EXPECT_EQ(peer->remote_admission_cap, 512u);
  }

  // The node dies. Gossip starts failing; staleness crosses the suspect
  // threshold, then the eviction threshold.
  c.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cluster.GossipNow();
  EXPECT_EQ(FindPeer(cluster.Stats(), "nc")->state, "suspect");

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    EXPECT_EQ(FindPeer(stats, "nc")->state, "left");
    EXPECT_GE(stats.membership.suspects, 1u);
    EXPECT_GE(stats.membership.evictions, 1u);
  }
  // With no eligible node, invokes fail fast instead of hanging.
  auto unroutable = cluster.Invoke({"Id", EchoArgs("nowhere")});
  EXPECT_FALSE(unroutable.ok());
  EXPECT_EQ(unroutable.status().code(), dbase::StatusCode::kUnavailable);

  // The node comes back on the same port: eviction kept probing it, so
  // one gossip round re-admits it without administrative intervention.
  c = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "nc", .port = port});
  ASSERT_FALSE(c->skipped()) << c->skip_reason();
  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    EXPECT_EQ(FindPeer(stats, "nc")->state, "active");
    EXPECT_GE(stats.membership.rejoins, 1u);
  }
  auto routed = cluster.Invoke({"Id", EchoArgs("welcome back")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.node_name, "nc");
}

TEST(ClusterNetTest, GossipFillsPeerStatsAndLocalitysticks) {
  AgentNode a(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kLocality));

  // First placement falls back to least-loaded; afterwards the serve
  // history pins the composition to that node.
  auto first = cluster.Invoke({"Id", EchoArgs("first")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto routed = cluster.Invoke({"Id", EchoArgs("again")});
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.node_index, first.node_index);
  }

  cluster.GossipNow();
  const auto stats = cluster.Stats();
  EXPECT_GE(stats.gossip_rounds, 1u);
  const auto* served_peer = FindPeer(stats, first.node_name);
  ASSERT_NE(served_peer, nullptr);
  EXPECT_TRUE(served_peer->remote);
  EXPECT_EQ(served_peer->served, 6u);
  EXPECT_GE(served_peer->invokes_sent, 6u);
  EXPECT_GT(served_peer->bytes_sent, 0u);
  EXPECT_GT(served_peer->bytes_received, 0u);
  EXPECT_GE(served_peer->gossip_age_us, 0);
}

// The gossip body carries exactly what the router reads: the node's
// in-flight count, its queued engine tasks, and an admission cap that is 0
// (uncapped) as soon as either class is uncapped.
TEST(ClusterNetTest, BuildStatusReportsInflightBacklogAndCap) {
  AgentNode node(NodeAgentConfig{.node_name = "ns"});
  SKIP_WITHOUT_LOOPBACK(node);
  EXPECT_EQ(node.agent().BuildStatus().admission_cap, 512u);

  // One nap holds the node's only compute worker (the other holds the comm
  // role); two more wait in the compute queue.
  std::vector<InvocationHandle> handles;
  dbase::Latch done(3);
  for (int i = 0; i < 3; ++i) {
    handles.push_back(node.platform().Submit(
        {"Nap", EchoArgs("hold")}, [&](dbase::Result<DataSetList>) { done.CountDown(); }));
  }
  ASSERT_TRUE(WaitUntil(
      [&] {
        const EngineStats engines = node.platform().engine_stats();
        return engines.compute_queue_len == 2 && engines.comm_queue_len == 0;
      },
      2000))
      << "two naps never queued behind the busy worker";
  const dnet::WireNodeStatus status = node.agent().BuildStatus();
  EXPECT_EQ(status.node_name, "ns");
  EXPECT_EQ(status.inflight, 3u);
  EXPECT_EQ(status.backlog, 2u);
  for (const InvocationHandle& handle : handles) handle.Cancel();
  ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));

  AgentNode half(NodeAgentConfig{
      .node_name = "half", .max_inflight_interactive = 0, .max_inflight_batch = 8});
  SKIP_WITHOUT_LOOPBACK(half);
  EXPECT_EQ(half.agent().BuildStatus().admission_cap, 0u);
  AgentNode other_half(NodeAgentConfig{
      .node_name = "other", .max_inflight_interactive = 8, .max_inflight_batch = 0});
  SKIP_WITHOUT_LOOPBACK(other_half);
  EXPECT_EQ(other_half.agent().BuildStatus().admission_cap, 0u);
}

// -------------------------------------------------------- protocol hygiene

int BlockingConnect(uint16_t port) {
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

// MSG_NOSIGNAL: the server may drop us mid-write (that is the point), and
// the write must then fail with EPIPE instead of killing the test binary.
void SendRaw(int fd, const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + offset, bytes.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return;  // Peer already dropped us — that is the point.
    offset += static_cast<size_t>(n);
  }
}

// Reads until EOF (connection dropped by the server) or the RCVTIMEO.
// True when the server dropped the connection: a clean EOF, or a reset —
// aborting with our unsent bytes still in the socket buffer makes the
// kernel answer RST rather than FIN, and both mean "you were cut off".
bool ReadUntilEof(int fd) {
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

std::string ValidInvokeFrame() {
  dnet::WireInvoke invoke;
  invoke.composition = "Id";
  invoke.invocation_id = 7;
  invoke.args.push_back(DataSet{"in", {DataItem{"", "fuzz seed payload"}}});
  std::string body;
  for (const auto& chunk : dnet::EncodeInvoke(invoke)) {
    body.append(chunk.view());
  }
  dnet::FrameHeader header;
  header.type = dnet::FrameType::kInvoke;
  header.body_len = static_cast<uint32_t>(body.size());
  header.request_id = 99;
  return dnet::EncodeFrameHeader(header) + body;
}

TEST(ClusterNetTest, HostileFramesDropTheConnectionNotTheServer) {
  AgentNode node(NodeAgentConfig{.node_name = "nh",
                                 .limits = dnet::FrameLimits{.max_body_bytes = 4096}});
  SKIP_WITHOUT_LOOPBACK(node);
  const dnet::NodeServer& server = node.agent().server();

  const std::string valid = ValidInvokeFrame();
  std::vector<std::pair<const char*, std::string>> hostile;
  hostile.emplace_back("http instead of dnet", std::string("GET / HTTP/1.1\r\n\r\n"));
  {
    std::string bad_magic = valid;
    bad_magic[0] ^= 0xFF;
    hostile.emplace_back("bad magic", bad_magic);
  }
  {
    std::string bad_version = valid;
    bad_version[4] = 9;
    hostile.emplace_back("unknown version", bad_version);
  }
  {
    std::string bad_type = valid;
    bad_type[5] = 0x5A;
    hostile.emplace_back("unknown frame type", bad_type);
  }
  {
    std::string bad_reserved = valid;
    bad_reserved[12] = 1;
    hostile.emplace_back("reserved word set", bad_reserved);
  }
  {
    dnet::FrameHeader oversized;
    oversized.type = dnet::FrameType::kInvoke;
    oversized.body_len = 5000;  // Beyond the 4096-byte limit.
    hostile.emplace_back("oversized body length", dnet::EncodeFrameHeader(oversized));
  }
  {
    dnet::FrameHeader header;
    header.type = dnet::FrameType::kInvoke;
    header.body_len = 8;
    hostile.emplace_back("corrupt invoke body",
                         dnet::EncodeFrameHeader(header) + std::string(8, '\xEE'));
  }

  uint64_t expected_errors = server.protocol_errors();
  for (const auto& [label, bytes] : hostile) {
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, bytes);
    // The contract: kInvalidArgument internally, connection dropped, no
    // reply bytes owed. From out here that is a clean EOF.
    EXPECT_TRUE(ReadUntilEof(fd)) << label;
    close(fd);
    ++expected_errors;
    const auto counted = [&] { return server.protocol_errors() >= expected_errors; };
    for (int i = 0; i < 500 && !counted(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(counted()) << label << ": protocol_errors=" << server.protocol_errors()
                           << " want>=" << expected_errors;
  }

  // A half-sent header followed by a hangup is not a protocol error, just
  // an EOF — and must not wedge the accept loop.
  {
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, valid.substr(0, 11));
    close(fd);
  }

  // Deterministic fuzz: bounded random mutations of a valid invoke frame.
  // Whatever the bytes decode to, the server must survive.
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 150; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^= static_cast<char>(next() & 0xFF);
    }
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, mutated);
    close(fd);
  }

  // Liveness: the server still speaks the protocol to a well-behaved
  // router after all of the above.
  Cluster cluster(
      RemoteClusterConfig({{"nh", node.port()}}, LoadBalancePolicy::kRoundRobin));
  auto routed = cluster.Invoke({"Id", EchoArgs("still alive")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "still alive");
}

// ------------------------------------------------------------------ statz

void HttpSendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = send(fd, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    offset += static_cast<size_t>(n);
  }
}

dbase::Result<dhttp::HttpResponse> ReadOneHttpResponse(int fd) {
  std::string carry;
  char buffer[8192];
  while (true) {
    auto head = dhttp::ScanMessageHead(carry, 1 << 20);
    if (!head.ok()) return head.status();
    if (head->has_value()) {
      const size_t total = (*head)->head_bytes + static_cast<size_t>((*head)->content_length);
      if (carry.size() >= total) {
        return dhttp::ParseResponse(std::string_view(carry).substr(0, total));
      }
    }
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) return dbase::Unavailable("connection closed mid-response");
    carry.append(buffer, static_cast<size_t>(n));
  }
}

TEST(ClusterNetTest, StatzReportsClusterSection) {
  AgentNode remote(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(remote);
  Cluster cluster(
      RemoteClusterConfig({{"nb", remote.port()}}, LoadBalancePolicy::kRoundRobin));

  // The frontend's own platform holds the composition catalog; the
  // attached cluster carries the invocations to the remote node.
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kNodeDsl).ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  frontend.AttachCluster(&cluster);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  // One invocation through the whole path: HTTP ingest → cluster routing
  // → dnet wire → remote engine → wire → HTTP response.
  {
    dhttp::HttpRequest request;
    request.method = dhttp::Method::kPost;
    request.target = "/invoke/Id";
    request.headers.Add("X-Dandelion-Raw", "1");
    request.body = "via the whole stack";
    const int fd = BlockingConnect(frontend.port());
    HttpSendAll(fd, request.Serialize());
    auto response = ReadOneHttpResponse(fd);
    close(fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200);
    auto sets = dfunc::UnmarshalSets(response->body);
    ASSERT_TRUE(sets.ok());
    EXPECT_EQ((*sets)[0].items[0].data.ToString(), "via the whole stack");
    EXPECT_EQ(remote.agent().invocations_served(), 1u);
  }

  cluster.GossipNow();
  {
    const int fd = BlockingConnect(frontend.port());
    HttpSendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
    auto response = ReadOneHttpResponse(fd);
    close(fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200);
    const std::string& body = response->body;
    EXPECT_NE(body.find("\"cluster\":{\"enabled\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"reroutes_shed\":"), std::string::npos);
    EXPECT_NE(body.find("\"gossip_rounds\":"), std::string::npos);
    EXPECT_NE(body.find("\"nb\":{\"remote\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"bytes_sent\":"), std::string::npos);
  }
  frontend.Stop();
}

TEST(ClusterNetTest, ClientDisconnectCancelsOnTheServingNode) {
  AgentNode remote(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(remote);
  Cluster cluster(
      RemoteClusterConfig({{"nb", remote.port()}}, LoadBalancePolicy::kRoundRobin));
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "nap", .body = NapEcho}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kNodeDsl).ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  frontend.AttachCluster(&cluster);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/Nap";
  request.headers.Add("X-Dandelion-Raw", "1");
  request.body = "hang up on me";
  const int fd = BlockingConnect(frontend.port());
  HttpSendAll(fd, request.Serialize());
  ASSERT_TRUE(WaitUntil(
      [&] { return remote.platform().dispatcher_stats().invocations_started >= 1; }, 1000))
      << "the nap never reached the node";

  // The client vanishes mid-nap (RST via SO_LINGER 0, not a half-close):
  // the frontend cancels the routed handle, which sends kCancel to the
  // serving node.
  linger hard_close{};
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close)), 0);
  const auto hung_up = std::chrono::steady_clock::now();
  close(fd);
  ASSERT_TRUE(WaitUntil(
      [&] { return remote.platform().dispatcher_stats().invocations_cancelled >= 1; }, 2000));
  EXPECT_LT(std::chrono::steady_clock::now() - hung_up, std::chrono::milliseconds(400))
      << "the nap ran to its end";
  EXPECT_EQ(remote.platform().dispatcher_stats().invocations_cancelled, 1u);
  frontend.Stop();
}

}  // namespace
}  // namespace dandelion
