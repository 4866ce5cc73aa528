// The four workloads of the end-to-end benchmark: their frozen rates and
// latency limits, the request inputs each one generates from the seed, the
// check every response must pass, and the server-side deployment each one
// drives (platform, engine nodes, cluster router, HTTP frontend).
#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <libgen.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/util.h"
#include "src/apps/log_app.h"
#include "src/base/buffer.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/func/builtins.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/runtime/cluster.h"
#include "src/runtime/frontend.h"
#include "src/runtime/platform.h"

namespace e2e {

enum class Workload { kEchoHttp, kMatmulCold, kMixedShift, kClusterWire };

// Rates and limits were calibrated once against the parent commit on a
// 4-core virtual machine and are frozen here (README.md has the numbers):
// rate_lo is light load; rate_hi stays below the capacity the server keeps
// while the hypervisor takes a third of the machine's CPU time, so that a
// busy host slows the phase down without tipping it into a growing
// backlog; the latency limit is the one the capacity ladder applies to p99.
struct WorkloadSpec {
  Workload id;
  const char* name;
  double rate_lo;  // req/s
  double rate_hi;  // req/s
  double slo_ms;   // p99 limit for the capacity ladder.
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kEchoHttp, "echo-http", 2000, 8000, 10.0},
    {Workload::kMatmulCold, "matmul-cold", 100, 250, 20.0},
    {Workload::kMixedShift, "mixed-shift", 100, 250, 50.0},
    {Workload::kClusterWire, "cluster-wire", 2000, 6000, 10.0},
};

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// The engine workers a local server gets: one core stays with the load
// generator.
inline int ServerWorkers() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

// ------------------------------------------------------------------ inputs

constexpr const char* kIdDsl = "composition Id(in) => out { echo(in = all in) => (out = out); }";
constexpr const char* kMatMulDsl =
    "composition MatMul(A, B) => C { matmul(A = all A, B = all B) => (C = C); }";

enum class Check { kEcho, kMatmul, kRenderLogs };

// One pre-built request: its exact wire bytes, the arguments the frontend
// derives from them, and what its response must contain.
struct Template {
  std::string composition;
  std::string wire;
  Check check = Check::kEcho;
  // kEcho: the request body; kMatmul: the encoded product C.
  std::string expected;
};

// A traffic class: templates picked uniformly, with a share of arrivals in
// the first and in the second half of every phase.
struct RequestClass {
  std::vector<uint32_t> ids;
  double share_early = 1.0;
  double share_late = 1.0;
};

struct Inputs {
  std::vector<Template> templates;
  std::vector<RequestClass> classes;
  // Digest of the RenderLogs HTML from the in-process reference run taken
  // at set-up (mixed-shift only).
  uint64_t html_digest = 0;

  // Draws one arrival's template; `phase_fraction` in [0, 1) is how far the
  // arrival falls into its phase.
  uint32_t Pick(dbase::Rng& rng, double phase_fraction) const {
    const bool early = phase_fraction < 0.5;
    double total = 0;
    for (const RequestClass& c : classes) {
      total += early ? c.share_early : c.share_late;
    }
    double draw = rng.NextDouble() * total;
    const RequestClass* chosen = &classes.back();
    for (const RequestClass& c : classes) {
      draw -= early ? c.share_early : c.share_late;
      if (draw < 0) {
        chosen = &c;
        break;
      }
    }
    return chosen->ids[rng.NextBounded(chosen->ids.size())];
  }

  // True when `sets` is exactly the result `t` must produce.
  bool VerifySets(const Template& t, const dfunc::DataSetList& sets) const {
    const char* name = t.check == Check::kEcho     ? "out"
                       : t.check == Check::kMatmul ? "C"
                                                   : "HTMLOutput";
    if (sets.size() != 1 || sets[0].name != name || sets[0].items.size() != 1) {
      return false;
    }
    const std::string_view got = sets[0].items[0].data.view();
    return t.check == Check::kRenderLogs ? Fnv1a64(got) == html_digest : got == t.expected;
  }

  // Checks a marshalled response body without copying its payloads.
  bool Verify(const Template& t, std::string_view body) const {
    auto sets = dfunc::UnmarshalSets(
        dbase::BufferSlice(dbase::Buffer::Wrap(body.data(), body.size(), nullptr)));
    return sets.ok() && VerifySets(t, *sets);
  }
};

inline std::string RandomBytes(dbase::Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>('!' + rng.NextBounded(94));
  }
  return out;
}

inline std::string InvokeWire(const std::string& composition, std::string body, bool raw) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  if (raw) {
    request.headers.Add("X-Dandelion-Raw", "1");
  }
  request.body = std::move(body);
  return request.Serialize();
}

inline Template EchoTemplate(std::string body) {
  Template t;
  t.composition = "Id";
  t.wire = InvokeWire("Id", body, /*raw=*/true);
  t.check = Check::kEcho;
  t.expected = std::move(body);
  return t;
}

inline Template MatmulTemplate(int n, uint64_t seed) {
  const std::vector<int64_t> a = dfunc::MakeMatrix(n, seed);
  const std::vector<int64_t> b = dfunc::MakeMatrix(n, seed ^ 0x5bd1e995u);
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{"A", {dfunc::DataItem{"", dfunc::EncodeInt64Array(a)}}});
  args.push_back(dfunc::DataSet{"B", {dfunc::DataItem{"", dfunc::EncodeInt64Array(b)}}});
  Template t;
  t.composition = "MatMul";
  t.wire = InvokeWire("MatMul", dfunc::MarshalSets(args), /*raw=*/false);
  t.check = Check::kMatmul;
  t.expected = dfunc::EncodeInt64Array(dfunc::MultiplyMatrices(a, b, n));
  return t;
}

// Everything a workload sends, generated from the seed before the server
// exists (so set-up time and memory exclude it).
inline Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  dbase::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(spec.id) + 1);
  const auto add_class = [&in](size_t first, double early, double late) {
    RequestClass c;
    for (size_t i = first; i < in.templates.size(); ++i) {
      c.ids.push_back(static_cast<uint32_t>(i));
    }
    c.share_early = early;
    c.share_late = late;
    in.classes.push_back(std::move(c));
  };
  switch (spec.id) {
    case Workload::kEchoHttp:
      for (int i = 0; i < 256; ++i) {
        in.templates.push_back(EchoTemplate(RandomBytes(rng, 16 + rng.NextBounded(49))));
      }
      add_class(0, 1, 1);
      break;
    case Workload::kMatmulCold:
      // 32x32: larger matrices grow glibc's heap past what the seccomp jail
      // of the process backend allows (see README.md).
      for (int i = 0; i < 64; ++i) {
        in.templates.push_back(MatmulTemplate(32, rng.NextU64()));
      }
      add_class(0, 1, 1);
      break;
    case Workload::kMixedShift: {
      Template render;
      render.composition = "RenderLogs";
      render.wire = InvokeWire("RenderLogs", dapps::LogAppConfig{}.auth_token, /*raw=*/true);
      render.check = Check::kRenderLogs;
      in.templates.push_back(std::move(render));
      add_class(0, 0.8, 0.2);
      for (int i = 0; i < 64; ++i) {
        in.templates.push_back(MatmulTemplate(128, rng.NextU64()));
      }
      add_class(1, 0.2, 0.8);
      break;
    }
    case Workload::kClusterWire: {
      constexpr size_t kSizes[] = {64, 4096, 65536};
      constexpr double kShares[] = {0.80, 0.15, 0.05};
      for (int c = 0; c < 3; ++c) {
        const size_t first = in.templates.size();
        for (int i = 0; i < 64; ++i) {
          in.templates.push_back(EchoTemplate(RandomBytes(rng, kSizes[c])));
        }
        add_class(first, kShares[c], kShares[c]);
      }
      break;
    }
  }
  return in;
}

// ------------------------------------------------------------- engine nodes

// A dandelion_node daemon spawned next to the bench binary, handshaking its
// bound port over a stdout pipe. Spawn() starts it; AwaitPort() reads the
// handshake, so several nodes boot in parallel.
class SpawnedNode {
 public:
  SpawnedNode() = default;
  SpawnedNode(const SpawnedNode&) = delete;
  SpawnedNode& operator=(const SpawnedNode&) = delete;
  ~SpawnedNode() {
    Stop();
    if (handshake_fd_ >= 0) {
      close(handshake_fd_);
    }
  }

  static std::string BinaryPath() {
    char exe[4096] = {};
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
      return "";
    }
    std::string dir(exe, static_cast<size_t>(n));
    return std::string(dirname(dir.data())) + "/dandelion_node";
  }

  // posix_spawn, not fork: the child does not copy the page tables of this
  // multi-threaded process, whose size would otherwise enter set-up time.
  dbase::Status Spawn(const std::string& name, int workers) {
    name_ = name;
    const std::string binary = BinaryPath();
    if (binary.empty() || access(binary.c_str(), X_OK) != 0) {
      return dbase::FailedPrecondition("engine-node binary missing: " + binary);
    }
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      return dbase::Internal("pipe() failed");
    }
    const std::string name_flag = "--name=" + name;
    const std::string workers_flag = "--workers=" + std::to_string(workers);
    const char* argv[] = {binary.c_str(), name_flag.c_str(), "--port=0", workers_flag.c_str(),
                          nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = -1;
    const int error = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                  const_cast<char**>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (error != 0) {
      close(fds[0]);
      return dbase::Internal("posix_spawn() failed: " + std::string(std::strerror(error)));
    }
    pid_ = pid;
    handshake_fd_ = fds[0];
    return dbase::OkStatus();
  }

  // Waits (up to 15 s) for the node's "LISTENING <port>" line.
  dbase::Status AwaitPort() {
    std::string line;
    const int64_t give_up = NowNs() + 15'000'000'000;
    while (NowNs() < give_up && line.find('\n') == std::string::npos) {
      pollfd pfd{handshake_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 200) <= 0) {
        continue;
      }
      char buffer[128];
      const ssize_t got = read(handshake_fd_, buffer, sizeof(buffer));
      if (got <= 0) {
        break;
      }
      line.append(buffer, static_cast<size_t>(got));
    }
    close(handshake_fd_);
    handshake_fd_ = -1;
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0) {
      Stop();
      return dbase::Unavailable("engine node '" + name_ + "' did not report a port");
    }
    port_ = static_cast<uint16_t>(port);
    return dbase::OkStatus();
  }

  // SIGTERM, then SIGKILL if the node has not exited within two seconds.
  void Stop() {
    if (pid_ <= 0) {
      return;
    }
    kill(pid_, SIGTERM);
    int status = 0;
    const int64_t give_up = NowNs() + 2'000'000'000;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > give_up) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(1000);
    }
    pid_ = -1;
  }

  const std::string& name() const { return name_; }
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  std::string name_;
  pid_t pid_ = -1;
  int handshake_fd_ = -1;
  uint16_t port_ = 0;
};

// -------------------------------------------------------------- deployment

// The server side of one workload, built exactly the way an operator would
// deploy it: registration through the public Platform/Cluster API and an
// HttpFrontend bound on loopback.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (frontend_ != nullptr) {
      frontend_->Stop();
    }
    if (cluster_ != nullptr) {
      cluster_->Shutdown();
    }
    nodes_.clear();
    if (platform_ != nullptr) {
      platform_->Shutdown();
    }
  }

  // Builds and starts the server for `spec`. For mixed-shift it also runs
  // the in-process RenderLogs reference and stores its digest in `inputs`.
  static dbase::Result<std::unique_ptr<Deployment>> Create(const WorkloadSpec& spec,
                                                           Inputs* inputs) {
    auto d = std::make_unique<Deployment>();
    dandelion::PlatformConfig config;
    config.num_workers = ServerWorkers();
    config.backend = dandelion::IsolationBackend::kThread;
    config.sleep_for_modeled_latency = false;
    switch (spec.id) {
      case Workload::kEchoHttp:
        break;
      case Workload::kMatmulCold:
        // Every request forks a fresh jailed sandbox: no warm pool.
        config.backend = dandelion::IsolationBackend::kProcess;
        config.enable_sandbox_pool = false;
        break;
      case Workload::kMixedShift:
        config.sleep_for_modeled_latency = true;
        config.enable_control_plane = true;
        break;
      case Workload::kClusterWire:
        // The router's own platform only holds the composition catalog the
        // frontend resolves raw bodies against; the nodes do the work.
        config.num_workers = 2;
        break;
    }
    d->platform_ = std::make_unique<dandelion::Platform>(config);
    dandelion::Platform& platform = *d->platform_;
    switch (spec.id) {
      case Workload::kEchoHttp:
      case Workload::kClusterWire:
        // A zero-size binary: the sandbox costs nothing to load.
        RETURN_IF_ERROR(platform.RegisterFunction(
            {.name = "echo", .body = dfunc::EchoFunction, .binary_bytes = 0}));
        RETURN_IF_ERROR(platform.RegisterCompositionDsl(kIdDsl));
        break;
      case Workload::kMatmulCold:
        RETURN_IF_ERROR(platform.RegisterFunction({.name = "matmul", .body = dfunc::MatMulFunction}));
        RETURN_IF_ERROR(platform.RegisterCompositionDsl(kMatMulDsl));
        break;
      case Workload::kMixedShift: {
        const dapps::LogAppConfig log_config;
        RETURN_IF_ERROR(dapps::InstallLogApp(platform, log_config));
        RETURN_IF_ERROR(platform.RegisterFunction({.name = "matmul", .body = dfunc::MatMulFunction}));
        RETURN_IF_ERROR(platform.RegisterCompositionDsl(kMatMulDsl));
        ASSIGN_OR_RETURN(std::string html, dapps::RunLogApp(platform, log_config));
        const uint64_t digest = Fnv1a64(html);
        if (inputs->html_digest != 0 && inputs->html_digest != digest) {
          return dbase::Internal("RenderLogs reference output changed between set-ups");
        }
        inputs->html_digest = digest;
        break;
      }
    }
    if (spec.id == Workload::kClusterWire) {
      dandelion::Cluster::Config cluster_config;
      cluster_config.num_nodes = 0;
      cluster_config.policy = dandelion::LoadBalancePolicy::kLeastLoaded;
      cluster_config.router_name = "e2e-router";
      for (int i = 0; i < 2; ++i) {
        d->nodes_.push_back(std::make_unique<SpawnedNode>());
        RETURN_IF_ERROR(d->nodes_.back()->Spawn("node" + std::to_string(i), /*workers=*/2));
      }
      for (const auto& node : d->nodes_) {
        RETURN_IF_ERROR(node->AwaitPort());
        cluster_config.remote_nodes.push_back({node->name(), node->port()});
      }
      d->cluster_ = std::make_unique<dandelion::Cluster>(std::move(cluster_config));
    }
    d->frontend_ = std::make_unique<dandelion::HttpFrontend>(&platform, dandelion::FrontendConfig{});
    if (d->cluster_ != nullptr) {
      d->frontend_->AttachCluster(d->cluster_.get());
    }
    RETURN_IF_ERROR(d->frontend_->Start());
    return d;
  }

  uint16_t port() const { return frontend_->port(); }
  dandelion::Platform& platform() { return *platform_; }
  dandelion::Cluster* cluster() { return cluster_.get(); }
  std::vector<pid_t> node_pids() const {
    std::vector<pid_t> pids;
    for (const auto& node : nodes_) {
      pids.push_back(node->pid());
    }
    return pids;
  }

 private:
  std::unique_ptr<dandelion::Platform> platform_;
  std::vector<std::unique_ptr<SpawnedNode>> nodes_;
  std::unique_ptr<dandelion::Cluster> cluster_;
  std::unique_ptr<dandelion::HttpFrontend> frontend_;
};

// ----------------------------------------------------------- plain client

inline dbase::Result<int> ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return dbase::Unavailable("socket() failed");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return dbase::Unavailable("loopback connect failed");
  }
  return fd;
}

// Length of the first complete HTTP response at the front of `buffer` and
// its status code; nullopt while incomplete, -1 length on a framing error.
struct ResponseFrame {
  size_t total = 0;
  size_t head = 0;
  int status = 0;
};
inline std::optional<ResponseFrame> NextResponse(std::string_view buffer, bool* broken) {
  auto head = dhttp::ScanMessageHead(buffer, 64 * 1024);
  if (!head.ok() || (head->has_value() && buffer.size() < 12)) {
    *broken = true;
    return std::nullopt;
  }
  if (!head->has_value()) {
    return std::nullopt;
  }
  ResponseFrame frame;
  frame.head = (*head)->head_bytes;
  frame.total = frame.head + static_cast<size_t>((*head)->content_length);
  if (buffer.size() < frame.total) {
    return std::nullopt;
  }
  // "HTTP/1.1 200 OK": the code sits at a fixed offset of the status line.
  frame.status = std::atoi(std::string(buffer.substr(9, 3)).c_str());
  return frame;
}

// One blocking request/response round trip that must return a verified
// body: the set-up's "first verified response".
inline dbase::Status FirstVerifiedResponse(uint16_t port, const Inputs& inputs) {
  ASSIGN_OR_RETURN(int fd, ConnectLoopback(port));
  const Template& t = inputs.templates[inputs.classes.front().ids.front()];
  size_t sent = 0;
  while (sent < t.wire.size()) {
    const ssize_t n = send(fd, t.wire.data() + sent, t.wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return dbase::Unavailable("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string in;
  char buf[65536];
  while (true) {
    bool broken = false;
    const auto frame = NextResponse(in, &broken);
    if (broken) {
      close(fd);
      return dbase::Internal("malformed response");
    }
    if (frame.has_value()) {
      close(fd);
      if (frame->status != 200) {
        return dbase::Internal("first response status " + std::to_string(frame->status));
      }
      if (!inputs.Verify(t, std::string_view(in).substr(frame->head, frame->total - frame->head))) {
        return dbase::Internal("first response has a wrong body");
      }
      return dbase::OkStatus();
    }
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      close(fd);
      return dbase::Unavailable("connection closed before the first response");
    }
    in.append(buf, static_cast<size_t>(n));
  }
}

// Set-up as a user pays it: deployment build through the first verified
// response. Returns the deployment and the elapsed nanoseconds.
inline dbase::Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec, Inputs* inputs,
                                                        int64_t* elapsed_ns) {
  const int64_t start = NowNs();
  ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment, Deployment::Create(spec, inputs));
  RETURN_IF_ERROR(FirstVerifiedResponse(deployment->port(), *inputs));
  *elapsed_ns = NowNs() - start;
  return deployment;
}

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
