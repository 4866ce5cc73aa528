// Macro replay through a real multi-process cluster on loopback: one HTTP
// frontend routing through a Cluster of three spawned dandelion_node engine
// processes over the dnet wire (ROADMAP "Distributed data plane").
// Per-invocation service times are drawn from the synthesized Azure
// Functions trace (§7.8), scaled so the whole replay runs in seconds.
//
// Demonstrates that the PR 4 overload contract survives distribution: with
// the client fleet scaled to 10× the uncontended interactive fleet,
//   (a) excess batch load sheds with 429 at the admission seams (frontend
//       cap and per-node caps, the latter re-routed once before
//       surfacing),
//   (b) the interactive p99 stays within 2× of its uncontended value —
//       the urgent lanes now live inside separate engine processes,
//   (c) impossible deadlines answer 504 near the deadline, and
//   (d) a SIGKILLed engine node is absorbed by the router's re-route:
//       traffic continues on the survivors with no 5xx.
// Per-node utilization, served counts, wire bytes and shed/re-route
// counters land in the DANDELION_BENCH_JSON report.
//
// Gate (advisory; strict with DANDELION_CLUSTER_BENCH_STRICT=1):
// interactive p99 under overload ≤ 2× uncontended, ≥ 1 shed 429, every
// node served traffic, every impossible-deadline request answered 504, and
// zero 5xx after the node kill.
#include <arpa/inet.h>
#include <libgen.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/string_util.h"
#include "src/benchutil/table.h"
#include "src/func/builtins.h"
#include "src/http/http_parser.h"
#include "src/runtime/cluster.h"
#include "src/runtime/frontend.h"
#include "src/runtime/platform.h"
#include "src/trace/azure_trace.h"

namespace {

// ---------------------------------------------------------- node spawning

// A dandelion_node daemon spawned next to this binary, handshaking its
// bound port over a stdout pipe (same contract the cluster tests use).
struct SpawnedNode {
  pid_t pid = -1;
  uint16_t port = 0;

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

SpawnedNode SpawnNode(const std::string& name, int workers, size_t interactive_cap,
                      size_t batch_cap) {
  SpawnedNode node;
  const std::string binary = NodeBinaryPath();
  if (binary.empty() || access(binary.c_str(), X_OK) != 0) return node;

  int fds[2];
  if (pipe(fds) != 0) return node;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return node;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    const std::string name_flag = "--name=" + name;
    const std::string workers_flag = "--workers=" + std::to_string(workers);
    const std::string icap_flag = "--interactive-cap=" + std::to_string(interactive_cap);
    const std::string bcap_flag = "--batch-cap=" + std::to_string(batch_cap);
    const char* argv[] = {binary.c_str(),      name_flag.c_str(), "--port=0",
                          workers_flag.c_str(), icap_flag.c_str(), bcap_flag.c_str(),
                          nullptr};
    execv(binary.c_str(), const_cast<char**>(argv));
    _exit(127);
  }
  close(fds[1]);
  node.pid = pid;

  std::string line;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    char buffer[128];
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
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
  close(fds[0]);
  if (node.port == 0) node.Kill();
  return node;
}

// --------------------------------------------------------------- clients

struct ClientStats {
  std::vector<dbase::Micros> latencies_us;  // Of 200 responses only.
  uint64_t ok200 = 0;
  uint64_t shed429 = 0;
  uint64_t deadline504 = 0;
  uint64_t other = 0;
  uint64_t transport_errors = 0;

  void Merge(const ClientStats& other_stats) {
    latencies_us.insert(latencies_us.end(), other_stats.latencies_us.begin(),
                        other_stats.latencies_us.end());
    ok200 += other_stats.ok200;
    shed429 += other_stats.shed429;
    deadline504 += other_stats.deadline504;
    other += other_stats.other;
    transport_errors += other_stats.transport_errors;
  }
};

int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  int nodelay = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = write(fd, data.data() + offset, data.size() - offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

// Reads one complete HTTP response; returns its status code or -1.
int ReadOneStatus(int fd, std::string* carry) {
  char buffer[8192];
  while (true) {
    auto head = dhttp::ScanMessageHead(*carry, 1 << 20);
    if (!head.ok()) {
      return -1;
    }
    if (head->has_value()) {
      const size_t total =
          (*head)->head_bytes + static_cast<size_t>((*head)->content_length);
      if (carry->size() >= total) {
        auto response = dhttp::ParseResponse(std::string_view(*carry).substr(0, total));
        carry->erase(0, total);
        return response.ok() ? response->status_code : -1;
      }
    }
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      return -1;
    }
    carry->append(buffer, static_cast<size_t>(n));
  }
}

// A closed-loop keep-alive client replaying trace-drawn requests: one in
// flight, `requests` total, cycling through the pre-serialized wire list
// from a per-client offset so the fleet replays the arrival mix rather
// than hammering one duration.
ClientStats RunClient(uint16_t port, const std::vector<std::string>& wires,
                      size_t start_offset, int requests) {
  ClientStats stats;
  int fd = ConnectTo(port);
  std::string carry;
  for (int i = 0; i < requests; ++i) {
    const std::string& wire = wires[(start_offset + static_cast<size_t>(i)) % wires.size()];
    if (fd < 0) {
      fd = ConnectTo(port);
      carry.clear();
      if (fd < 0) {
        ++stats.transport_errors;
        continue;
      }
    }
    const dbase::Stopwatch watch;
    if (!SendAll(fd, wire)) {
      close(fd);
      fd = -1;
      ++stats.transport_errors;
      continue;
    }
    const int status = ReadOneStatus(fd, &carry);
    switch (status) {
      case 200:
        stats.latencies_us.push_back(watch.ElapsedMicros());
        ++stats.ok200;
        break;
      case 429:
        ++stats.shed429;
        break;
      case 504:
        ++stats.deadline504;
        break;
      case -1:
        close(fd);
        fd = -1;
        ++stats.transport_errors;
        break;
      default:
        ++stats.other;
    }
  }
  if (fd >= 0) {
    close(fd);
  }
  return stats;
}

ClientStats RunClientFleet(uint16_t port, const std::vector<std::string>& wires,
                           int clients, int requests_per_client) {
  std::vector<ClientStats> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    // Prime-stride offsets decorrelate the per-client replay windows.
    threads.emplace_back([&, c] {
      results[static_cast<size_t>(c)] =
          RunClient(port, wires, static_cast<size_t>(c) * 7919, requests_per_client);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ClientStats merged;
  for (const auto& r : results) {
    merged.Merge(r);
  }
  return merged;
}

dbase::Micros Percentile(std::vector<dbase::Micros> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      std::min<double>(static_cast<double>(values.size()) - 1,
                       p / 100.0 * static_cast<double>(values.size())));
  return values[index];
}

std::string InvokeWire(const std::string& composition, const std::string& body,
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

}  // namespace

int main() {
  // Topology: 3 engine processes × 3 workers each; the frontend process
  // runs no local node (Cluster.num_nodes = 0), so every invocation
  // crosses the dnet wire. The baseline interactive fleet is 4 closed-loop
  // connections; under overload the total fleet is 40 — 10× — with the
  // extra 36 connections flooding the batch class, exactly the PR 4 shape
  // scaled out to a multi-process cluster.
  // One compute engine per node: the 4-connection interactive baseline
  // already saturates all 3 compute engines, so the overload phase changes
  // queueing, not execution concurrency — the p99 ratio then measures the
  // urgent lane + re-routing, not CPU multiplexing on small CI machines.
  constexpr int kNodes = 3;
  constexpr int kNodeWorkers = 2;
  constexpr size_t kNodeInteractiveCap = 8;
  constexpr size_t kNodeBatchCap = 4;
  constexpr int kInteractiveConns = 4;
  constexpr int kBatchConns = 36;
  constexpr size_t kWireCount = 512;

  int per_conn = 150;
  if (const char* env = std::getenv("DANDELION_CLUSTER_BENCH_REQUESTS")) {
    uint64_t parsed = 0;
    if (dbase::ParseUint64(env, &parsed) && parsed > 0) {
      per_conn = static_cast<int>(parsed);
    }
  }

  dbench::PrintHeader(
      "Azure-trace replay through a 3-process cluster on loopback: shedding, "
      "re-routing, node kill");

  // The trace contributes the per-invocation service-time mix (lognormal
  // around heavy-tailed per-function means). Durations are scaled ÷50 and
  // clamped to [200 us, 10 ms] so the replay holds the trace's shape while
  // finishing in seconds.
  dtrace::AzureTraceConfig trace_config;
  trace_config.num_functions = 100;
  trace_config.duration_minutes = 10;
  const dtrace::Trace trace = dtrace::SynthesizeAzureTrace(trace_config);
  const std::vector<dtrace::Arrival> arrivals = trace.ToArrivals(/*seed=*/1);
  if (arrivals.empty()) {
    std::fprintf(stderr, "trace synthesis produced no arrivals\n");
    return 1;
  }
  std::vector<dbase::Micros> durations;
  durations.reserve(kWireCount);
  for (size_t i = 0; i < kWireCount; ++i) {
    const dbase::Micros raw = arrivals[i % arrivals.size()].duration_us;
    durations.push_back(std::clamp<dbase::Micros>(raw / 50, 200, 10 * dbase::kMicrosPerMilli));
  }
  dbase::Micros duration_sum = 0;
  for (const dbase::Micros d : durations) {
    duration_sum += d;
  }
  const double mean_ms =
      dbase::MicrosToMillis(duration_sum / static_cast<dbase::Micros>(durations.size()));
  dbench::PrintNote(dbase::StrFormat(
      "%d functions, %d trace minutes, %zu arrivals replayed through %zu request bodies "
      "(mean service %.2f ms, p99 %.2f ms); %d nodes x %d workers, node caps %zu "
      "interactive / %zu batch; %d interactive + %d batch connections, %d requests each",
      trace_config.num_functions, trace_config.duration_minutes, arrivals.size(),
      durations.size(), mean_ms, dbase::MicrosToMillis(Percentile(durations, 99)), kNodes,
      kNodeWorkers, kNodeInteractiveCap, kNodeBatchCap, kInteractiveConns, kBatchConns,
      per_conn));

  // Engine processes first: their ports seed the cluster config.
  std::vector<SpawnedNode> nodes(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    nodes[static_cast<size_t>(i)] = SpawnNode("node" + std::to_string(i), kNodeWorkers,
                                              kNodeInteractiveCap, kNodeBatchCap);
    if (!nodes[static_cast<size_t>(i)].ok()) {
      dbench::PrintNote("SKIPPED: cannot spawn dandelion_node (binary or loopback missing)");
      for (auto& node : nodes) {
        node.Kill();
      }
      return 0;
    }
  }

  // The frontend's own platform serves only the composition catalog (raw
  // invokes resolve the first parameter name there) and the statz surface;
  // with num_nodes = 0 every invocation routes to the spawned processes.
  dandelion::PlatformConfig frontend_platform_config;
  frontend_platform_config.num_workers = 2;
  frontend_platform_config.backend = dandelion::IsolationBackend::kThread;
  frontend_platform_config.sleep_for_modeled_latency = false;
  dandelion::Platform platform(frontend_platform_config);
  if (!platform.RegisterFunction({.name = "work", .body = dfunc::EchoFunction}).ok() ||
      !platform
           .RegisterCompositionDsl(
               "composition Work(in) => out { work(in = all in) => (out = out); }")
           .ok()) {
    std::fprintf(stderr, "composition setup failed\n");
    return 1;
  }

  dandelion::Cluster::Config cluster_config;
  cluster_config.num_nodes = 0;
  cluster_config.policy = dandelion::LoadBalancePolicy::kLeastLoaded;
  cluster_config.router_name = "replay-router";
  for (int i = 0; i < kNodes; ++i) {
    cluster_config.remote_nodes.push_back(
        {"node" + std::to_string(i), nodes[static_cast<size_t>(i)].port});
  }
  cluster_config.gossip_interval_us = 100 * dbase::kMicrosPerMilli;
  dandelion::Cluster cluster(std::move(cluster_config));

  // Frontend admission: the interactive class is never shed (the fleet is
  // small); the batch flood sheds at a cap of 8 — below the 12 batch slots
  // the nodes offer in aggregate, so admitted batch work re-routes on a
  // node-level shed instead of dying as a 5xx.
  dandelion::FrontendConfig frontend_config;
  frontend_config.max_inflight_interactive = 64;
  frontend_config.max_inflight_batch = 8;
  dandelion::HttpFrontend frontend(&platform, frontend_config);
  frontend.AttachCluster(&cluster);
  if (const dbase::Status started = frontend.Start(); !started.ok()) {
    dbench::PrintNote("SKIPPED: loopback sockets unavailable: " + started.ToString());
    for (auto& node : nodes) {
      node.Kill();
    }
    return 0;
  }

  std::vector<std::string> interactive_wires;
  std::vector<std::string> batch_wires;
  interactive_wires.reserve(durations.size());
  batch_wires.reserve(durations.size());
  for (const dbase::Micros d : durations) {
    const std::string body = std::to_string(d);
    interactive_wires.push_back(
        InvokeWire("Work", body, {{"X-Dandelion-Priority", "interactive"}}));
    // Admitted batch requests carry a 100 ms deadline: whatever the
    // backlog cannot serve in time answers 504 instead of rotting.
    batch_wires.push_back(InvokeWire(
        "Work", body,
        {{"X-Dandelion-Priority", "batch"}, {"X-Dandelion-Deadline-Ms", "100"}}));
  }
  const std::vector<std::string> impossible_wires = {
      InvokeWire("Work", "20000", {{"X-Dandelion-Deadline-Ms", "5"}})};

  // Warm-up: node connections, engine pools, and the loopback path.
  RunClientFleet(frontend.port(), interactive_wires, kInteractiveConns,
                 std::max(1, per_conn / 10));

  // Phase 1 — uncontended interactive baseline across the wire.
  const ClientStats uncontended =
      RunClientFleet(frontend.port(), interactive_wires, kInteractiveConns, per_conn);
  const dbase::Micros base_p50 = Percentile(uncontended.latencies_us, 50);
  const dbase::Micros base_p99 = Percentile(uncontended.latencies_us, 99);

  // Phase 2 — overload: the same interactive fleet with a 36-connection
  // batch flood behind it (40 connections total = 10× baseline). A sampler
  // snapshots per-node stats mid-flood so utilization reflects the cluster
  // under pressure, not after it drained.
  ClientStats contended_interactive;
  ClientStats contended_batch;
  dandelion::Cluster::ClusterStats mid_flood{};
  {
    std::atomic<bool> flood_running{true};
    std::thread batch_thread([&] {
      contended_batch =
          RunClientFleet(frontend.port(), batch_wires, kBatchConns, per_conn);
      flood_running.store(false);
    });
    std::thread sampler([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      if (flood_running.load()) {
        cluster.GossipNow();
        mid_flood = cluster.Stats();
      }
    });
    // Let the flood establish itself before measuring interactive latency.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    contended_interactive =
        RunClientFleet(frontend.port(), interactive_wires, kInteractiveConns, per_conn);
    batch_thread.join();
    sampler.join();
  }
  if (mid_flood.peers.empty()) {
    cluster.GossipNow();
    mid_flood = cluster.Stats();
  }
  const dbase::Micros load_p50 = Percentile(contended_interactive.latencies_us, 50);
  const dbase::Micros load_p99 = Percentile(contended_interactive.latencies_us, 99);

  // Phase 3 — impossible deadlines: a 5 ms deadline on 20 ms of work must
  // answer 504 at the deadline, with the kill happening inside a remote
  // engine process.
  const ClientStats impossible = RunClientFleet(
      frontend.port(), impossible_wires, kInteractiveConns, std::max(1, per_conn / 10));

  // Phase 4 — node kill: SIGKILL one engine process, then keep serving.
  // Dead-peer failures map to the retry-safe FailureKind::kPeerLost and the
  // router re-routes to the survivors: the client fleet must see zero 5xx.
  nodes[kNodes - 1].Kill();
  const ClientStats after_kill = RunClientFleet(
      frontend.port(), interactive_wires, kInteractiveConns, std::max(1, per_conn / 4));
  cluster.GossipNow();
  const dandelion::Cluster::ClusterStats final_stats = cluster.Stats();

  dbench::Table table({"phase", "class", "requests", "200", "429", "504", "other",
                       "p50_ms", "p99_ms"});
  const auto row = [&table](const char* phase, const char* klass, const ClientStats& s) {
    const uint64_t total =
        s.ok200 + s.shed429 + s.deadline504 + s.other + s.transport_errors;
    table.AddRow({phase, klass, std::to_string(total), std::to_string(s.ok200),
                  std::to_string(s.shed429), std::to_string(s.deadline504),
                  std::to_string(s.other + s.transport_errors),
                  dbench::Table::Num(dbase::MicrosToMillis(Percentile(s.latencies_us, 50))),
                  dbench::Table::Num(dbase::MicrosToMillis(Percentile(s.latencies_us, 99)))});
  };
  row("uncontended", "interactive", uncontended);
  row("overload-10x", "interactive", contended_interactive);
  row("overload-10x", "batch", contended_batch);
  row("impossible-deadline", "interactive", impossible);
  row("node-killed", "interactive", after_kill);
  table.Print();

  // Per-node view sampled mid-flood: remote load is what the nodes last
  // gossiped (inflight / admission cap), the rest are router-side wire
  // counters from the NodeClient.
  dbench::Table node_table({"node", "state", "served", "sheds", "peer_lost", "remote_inflight",
                            "admission_cap", "utilization", "kb_sent", "kb_received"});
  for (const auto& peer : mid_flood.peers) {
    node_table.AddRow({peer.name, std::string(peer.state), std::to_string(peer.served),
                       std::to_string(peer.sheds_received),
                       std::to_string(peer.peer_lost_failures),
                       std::to_string(peer.remote_inflight),
                       std::to_string(peer.remote_admission_cap),
                       dbench::Table::Num(peer.utilization),
                       dbench::Table::Num(static_cast<double>(peer.bytes_sent) / 1024.0),
                       dbench::Table::Num(static_cast<double>(peer.bytes_received) / 1024.0)});
  }
  node_table.Print();

  dbench::Table counters({"counter", "value"});
  const auto counter = [&counters](const char* name, uint64_t value) {
    counters.AddRow({name, std::to_string(value)});
  };
  counter("reroutes_shed", final_stats.reroutes_shed);
  counter("reroutes_peer_lost", final_stats.reroutes_peer_lost);
  counter("reroute_denied", final_stats.reroute_denied);
  counter("no_eligible_node", final_stats.no_eligible_node);
  counter("gossip_rounds", final_stats.gossip_rounds);
  counter("membership_evictions", final_stats.membership.evictions);
  uint64_t total_served = 0;
  for (const auto& peer : final_stats.peers) {
    total_served += peer.served;
  }
  counter("total_served_remote", total_served);
  counters.Print();

  const double p99_ratio =
      base_p99 > 0 ? static_cast<double>(load_p99) / static_cast<double>(base_p99) : 0.0;
  const bool latency_ok = p99_ratio > 0 && p99_ratio <= 2.0;
  const bool shed_ok = contended_batch.shed429 > 0;
  bool spread_ok = mid_flood.peers.size() == static_cast<size_t>(kNodes);
  for (const auto& peer : mid_flood.peers) {
    spread_ok = spread_ok && peer.served > 0;
  }
  const uint64_t impossible_total = impossible.ok200 + impossible.shed429 +
                                    impossible.deadline504 + impossible.other +
                                    impossible.transport_errors;
  const bool deadline_ok =
      impossible_total > 0 && impossible.deadline504 == impossible_total;
  const uint64_t kill_total = after_kill.ok200 + after_kill.shed429 +
                              after_kill.deadline504 + after_kill.other +
                              after_kill.transport_errors;
  const bool kill_ok = after_kill.ok200 > 0 && after_kill.other == 0 &&
                       after_kill.transport_errors == 0 && after_kill.ok200 == kill_total;

  dbench::PrintNote(dbase::StrFormat(
      "interactive p99 %.2f ms uncontended -> %.2f ms at 10x offered load "
      "(%.2fx; gate <= 2x): %s; p50 %.2f -> %.2f ms",
      dbase::MicrosToMillis(base_p99), dbase::MicrosToMillis(load_p99), p99_ratio,
      latency_ok ? "PASS" : "FAIL", dbase::MicrosToMillis(base_p50),
      dbase::MicrosToMillis(load_p50)));
  dbench::PrintNote(dbase::StrFormat(
      "batch flood shed with 429: %llu of %llu (%s); node-level sheds re-routed %llu, "
      "re-route denied %llu",
      static_cast<unsigned long long>(contended_batch.shed429),
      static_cast<unsigned long long>(contended_batch.shed429 + contended_batch.ok200 +
                                      contended_batch.deadline504 + contended_batch.other),
      shed_ok ? "PASS" : "FAIL",
      static_cast<unsigned long long>(final_stats.reroutes_shed),
      static_cast<unsigned long long>(final_stats.reroute_denied)));
  dbench::PrintNote(dbase::StrFormat("all %d nodes served traffic mid-flood: %s", kNodes,
                                     spread_ok ? "PASS" : "FAIL"));
  dbench::PrintNote(dbase::StrFormat(
      "impossible 5 ms deadline on 20 ms remote work: %llu/%llu answered 504 (%s)",
      static_cast<unsigned long long>(impossible.deadline504),
      static_cast<unsigned long long>(impossible_total), deadline_ok ? "PASS" : "FAIL"));
  dbench::PrintNote(dbase::StrFormat(
      "SIGKILLed node%d absorbed: %llu/%llu responses 200 after the kill, "
      "%llu peer-lost re-routes (%s)",
      kNodes - 1, static_cast<unsigned long long>(after_kill.ok200),
      static_cast<unsigned long long>(kill_total),
      static_cast<unsigned long long>(final_stats.reroutes_peer_lost),
      kill_ok ? "PASS" : "FAIL"));

  frontend.Stop();
  cluster.Shutdown();
  for (auto& node : nodes) {
    node.Kill();
  }

  if (const char* strict = std::getenv("DANDELION_CLUSTER_BENCH_STRICT");
      strict != nullptr && strict[0] == '1') {
    return (latency_ok && shed_ok && spread_ok && deadline_ok && kill_ok) ? 0 : 1;
  }
  return 0;
}
