// bench_e2e: the end-to-end benchmark of the Dandelion runtime. It drives
// the real runtime over loopback HTTP with an open-loop generator (see
// loadgen.h) on four workloads (workloads.h), and splits request time into
// layers with a traced in-process replay (trace.h). README.md in this
// directory documents every metric, workload and mode.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One workload in this process. The last stdout line is one JSON
//       object {correct, attempted, failed, metrics}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//       --out <file> also writes the full record (phases, ladder, set-up
//       samples); --spans <file> writes the traced spans as JSON lines.
//   bench_e2e --seed <n> [--out e2e.json]
//       All four workloads, each in a fresh process (this binary re-runs
//       itself with --workload), then one summary table.
//   bench_e2e --compare [<metric>@<workload>] --parent a,b,.. --change c,d,..
//       Compares N parent and N change result files (--out records) from
//       alternating pairs against the metric lists in BENCHMARK.json, read
//       from the working directory.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/compare.h"
#include "bench/e2e/loadgen.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/util.h"
#include "bench/e2e/workloads.h"
#include "src/runtime/jail.h"
#include "src/runtime/memory_context.h"

namespace e2e {
namespace {

constexpr double kDefaultSeconds = 20;
// Shares of --seconds. An end-to-end run spends them on warm-up, lo and hi;
// a traced run has shorter lo and hi phases, then up to
// kLadderUp + kLadderBisect ladder steps and a replay as long as lo.
constexpr double kWarmupShare = 0.1;
constexpr double kPhaseShare = 0.45;
constexpr double kPhaseShareTraced = 0.2;
constexpr double kStepShare = 0.04;
constexpr int kLadderUp = 8;
constexpr int kLadderBisect = 3;
// Set-up is repeated this many times per end-to-end run (all but the last
// in forked children, so their memory never reaches the measured process)
// and the median is reported.
constexpr int kSetupRuns = 41;
constexpr double kMaxLagUs = 1000;
constexpr int kServerNice = 5;
constexpr double kMaxClosureError = 0.10;
constexpr int kSandboxProbes = 200;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in BENCHMARK.json order. README.md explains why
// latency, capacity and CPU cost are per-layer metrics instead.
constexpr MetricDef kEndToEnd[] = {
    {"mem_mib", "MiB"},
    {"setup_s", "s"},
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// ------------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  std::string spans;
  std::string out;
  bool compare = false;
  std::string claim;  // <metric>@<workload>, or empty.
  std::vector<std::string> parent;
  std::vector<std::string> change;
};

std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    const std::string part = value.substr(start, comma - start);
    if (!part.empty()) {
      out.push_back(part);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

// Accepts --key=value and --key value.
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
    std::string key = arg.substr(2);
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "spans") {
      args->spans = value;
    } else if (key == "out") {
      args->out = value;
    } else if (key == "compare") {
      args->compare = true;
      args->claim = value;
    } else if (key == "parent") {
      args->parent = SplitList(value);
    } else if (key == "change") {
      args->change = SplitList(value);
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  if (args->seconds < 1 || args->seconds > 600) {
    std::fprintf(stderr, "--seconds must be within [1, 600]\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------------- reporting

std::string PhaseJson(const PhaseResult& r) {
  return "{\"rate\":" + JsonNumber(r.rate) + ",\"seconds\":" + JsonNumber(r.seconds) +
         ",\"sent\":" + std::to_string(r.sent) + ",\"ok\":" + std::to_string(r.ok) +
         ",\"failed\":" + std::to_string(r.failed()) +
         ",\"non200\":" + std::to_string(r.non200) +
         ",\"wrong_body\":" + std::to_string(r.wrong_body) +
         ",\"transport\":" + std::to_string(r.transport) +
         ",\"unanswered\":" + std::to_string(r.unanswered) +
         ",\"backlog_at_end\":" + std::to_string(r.backlog_at_end) +
         ",\"p50_ms\":" + JsonNumber(r.LatencyP(50)) + ",\"p99_ms\":" + JsonNumber(r.LatencyP(99)) +
         ",\"lag_p50_us\":" + JsonNumber(r.LagP(50)) + ",\"lag_p99_us\":" + JsonNumber(r.LagP(99)) +
         ",\"host_steal\":" + JsonNumber(r.host_steal) + "}";
}

void PrintPhase(const PhaseResult& r) {
  std::printf(
      "  %-10s %8.0f req/s %5.1f s  sent %6llu ok %6llu failed %4llu  p50 %8.3f ms  p99 %8.3f ms"
      "  lag p50/p99 %6.1f/%7.1f us  backlog %llu  steal %.2f\n",
      r.name.c_str(), r.rate, r.seconds, static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.ok), static_cast<unsigned long long>(r.failed()),
      r.LatencyP(50), r.LatencyP(99), r.LagP(50), r.LagP(99),
      static_cast<unsigned long long>(r.backlog_at_end), r.host_steal);
  if (r.failed() > 0) {
    std::printf("  %-10s failed: %llu non-200, %llu wrong body, %llu transport, %llu unanswered\n",
                "", static_cast<unsigned long long>(r.non200),
                static_cast<unsigned long long>(r.wrong_body),
                static_cast<unsigned long long>(r.transport),
                static_cast<unsigned long long>(r.unanswered));
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(metrics[i].name) + ":{\"value\":" +
           JsonNumber(metrics[i].value) + ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool WriteText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------ server accounting

// Server CPU time: this process (the load generator runs in its own),
// reaped children (forked sandboxes) and the engine-node processes.
CpuTimes ServerCpu(const std::vector<pid_t>& nodes) {
  CpuTimes cpu = RusageCpu(RUSAGE_SELF);
  cpu += RusageCpu(RUSAGE_CHILDREN);
  for (const pid_t pid : nodes) {
    cpu += ProcCpu(pid);
  }
  return cpu;
}

// Resident memory of the server-side processes: this one and the engine
// nodes.
double ServerRssMib(const std::vector<pid_t>& nodes) {
  int64_t kb = ProcStatusKb("self", "VmRSS:");
  for (const pid_t pid : nodes) {
    kb += ProcStatusKb(std::to_string(pid), "VmRSS:");
  }
  return static_cast<double>(kb) / 1024.0;
}

// Layer counters read through each layer's public stats, before and after
// the measured phases.
struct LayerCounters {
  dandelion::DispatcherStats dispatcher;
  dandelion::EngineStats engine;
  dandelion::ContextPool::Stats context_pool;
  uint64_t decisions = 0;
  uint64_t shifts = 0;
  uint64_t shed_429 = 0;
  uint64_t reroutes = 0;
  std::vector<uint64_t> peer_served;
  uint64_t wire_bytes = 0;

  static LayerCounters Take(Deployment& d, uint64_t shed_429) {
    LayerCounters c;
    c.dispatcher = d.platform().dispatcher_stats();
    c.engine = d.platform().engine_stats();
    c.context_pool = dandelion::ContextPool::Get()->stats();
    if (dandelion::ControlPlane* control = d.platform().control_plane(); control != nullptr) {
      const auto summary = control->GetSummary();
      c.decisions = summary.decisions;
      c.shifts = summary.shifts_toward_compute + summary.shifts_toward_comm;
    }
    c.shed_429 = shed_429;
    if (dandelion::Cluster* cluster = d.cluster(); cluster != nullptr) {
      const auto stats = cluster->Stats();
      c.reroutes = stats.reroutes_shed + stats.reroutes_peer_lost;
      for (const auto& peer : stats.peers) {
        c.peer_served.push_back(peer.served);
        c.wire_bytes += peer.bytes_sent + peer.bytes_received;
      }
    }
    return c;
  }
};

// The frontend's 429 counter, read from its public GET /statz surface.
uint64_t FrontendShed(uint16_t port) {
  auto fd = ConnectLoopback(port);
  if (!fd.ok()) {
    return 0;
  }
  const std::string request = "GET /statz HTTP/1.1\r\nConnection: close\r\n\r\n";
  (void)send(*fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string in;
  char buf[16384];
  ssize_t n = 0;
  while ((n = recv(*fd, buf, sizeof(buf), 0)) > 0) {
    in.append(buf, static_cast<size_t>(n));
  }
  close(*fd);
  bool broken = false;
  const auto frame = NextResponse(in, &broken);
  if (!frame.has_value()) {
    return 0;
  }
  const auto statz = JsonParser::Parse(std::string_view(in).substr(frame->head));
  const Json* frontend = statz.has_value() ? statz->Find("frontend") : nullptr;
  const Json* shed = frontend != nullptr ? frontend->Find("shed_429") : nullptr;
  return shed != nullptr ? static_cast<uint64_t>(shed->number) : 0;
}

// Samples gauges every 10 ms while the measured phases run.
class GaugeSampler {
 public:
  explicit GaugeSampler(Deployment& d)
      : thread_([this, &d] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const dandelion::EngineStats engine = d.platform().engine_stats();
            committed_mib_.push_back(
                static_cast<double>(d.platform().accountant().current_bytes()) / (1 << 20));
            comm_inflight_max_ = std::max<double>(comm_inflight_max_, double(engine.comm_inflight));
            comm_workers_.push_back(engine.comm_workers);
            usleep(10'000);
          }
        }) {}
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;
  ~GaugeSampler() { Stop(); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  static double Mean(const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) {
      sum += x;
    }
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  }
  double committed_mean() const { return Mean(committed_mib_); }
  double committed_peak() const {
    return committed_mib_.empty() ? 0 : *std::max_element(committed_mib_.begin(), committed_mib_.end());
  }
  double comm_inflight_max() const { return comm_inflight_max_; }
  double comm_workers_mean() const { return Mean(comm_workers_); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> committed_mib_;
  std::vector<double> comm_workers_;
  double comm_inflight_max_ = 0;
  std::thread thread_;  // Last: starts after the members it writes exist.
};

// ----------------------------------------------------------- one workload

bool LadderStepPasses(const PhaseResult& r, double slo_ms) {
  return r.sent > 0 && r.LatencyP(99) <= slo_ms &&
         static_cast<double>(r.failed()) <= 0.001 * static_cast<double>(r.sent) &&
         r.LagP(50) <= kMaxLagUs &&
         static_cast<double>(r.backlog_at_end) <= r.rate * slo_ms / 1000.0;
}

// Capacity ladder: x1.25 steps above rate_hi until the first failing step
// (at most kLadderUp), then kLadderBisect geometric bisections between the
// last pass and that fail. Returns the highest passing rate.
template <typename RunPhase>
double CapacityLadder(const WorkloadSpec& spec, const PhaseResult& hi, double step_s,
                      RunPhase&& run, std::string* ladder_json) {
  const bool hi_passes = LadderStepPasses(hi, spec.slo_ms);
  double pass_rate = hi_passes ? spec.rate_hi : spec.rate_lo;
  double fail_rate = hi_passes ? 0 : spec.rate_hi;
  uint64_t stream = 10;
  const auto step = [&](double rate) {
    const PhaseResult r = run(PhasePlan{"ladder", rate, step_s, stream++});
    const bool pass = LadderStepPasses(r, spec.slo_ms);
    *ladder_json += std::string(ladder_json->empty() ? "" : ",") + "{\"pass\":" +
                    (pass ? "true" : "false") + ",\"phase\":" + PhaseJson(r) + "}";
    return pass;
  };
  for (int k = 1; hi_passes && k <= kLadderUp; ++k) {
    const double rate = spec.rate_hi * std::pow(1.25, k);
    if (!step(rate)) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
  }
  for (int b = 0; fail_rate > 0 && b < kLadderBisect; ++b) {
    const double mid = std::sqrt(pass_rate * fail_rate);
    (step(mid) ? pass_rate : fail_rate) = mid;
  }
  return pass_rate;
}

// One set-up in a forked child; returns its duration or -1.
int64_t ForkedSetUp(const WorkloadSpec& spec, const Inputs& inputs) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    Inputs copy = inputs;
    int64_t elapsed = -1;
    {
      auto deployment = SetUp(spec, &copy, &elapsed);
      if (!deployment.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", deployment.status().ToString().c_str());
        elapsed = -1;
      }
    }
    (void)!write(fds[1], &elapsed, sizeof(elapsed));
    _exit(0);
  }
  close(fds[1]);
  int64_t elapsed = -1;
  if (read(fds[0], &elapsed, sizeof(elapsed)) != sizeof(elapsed)) {
    elapsed = -1;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return elapsed;
}

int Fail(const std::string& reason) {
  std::fprintf(stderr, "bench_e2e: FAILED: %s\n", reason.c_str());
  return 3;
}

// The per-layer metrics of a traced run, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const PhaseResult& lo, const PhaseResult& hi,
                                 const CpuTimes& server_cpu, double max_rate,
                                 const LayerCounters& before, const LayerCounters& after,
                                 const GaugeSampler& gauges, TraceSummary& trace,
                                 const SandboxProbe& probe) {
  const auto span = [&trace](const char* name, double p) {
    return Percentile(trace.span_us[name], p);
  };
  const auto self = [&trace](const char* layer) { return Percentile(trace.self_us[layer], 50); };
  const auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  // Per-invocation counters are divided by the requests completed over HTTP
  // while they were counted (lo and hi): on cluster-wire the local
  // dispatcher starts none of them.
  const double completed = static_cast<double>(std::max<uint64_t>(1, lo.ok + hi.ok));
  const double launched = delta(before.engine.compute_tasks, after.engine.compute_tasks);
  const double aborted = delta(before.engine.compute_aborted, after.engine.compute_aborted);
  const double retried =
      delta(before.dispatcher.retries_attempted, after.dispatcher.retries_attempted);
  const double pool_hits = delta(before.context_pool.hits, after.context_pool.hits);
  const double pool_misses = delta(before.context_pool.misses, after.context_pool.misses);
  double served_total = 0;
  double served_max = 0;
  for (size_t i = 0; i < after.peer_served.size(); ++i) {
    const double served =
        delta(i < before.peer_served.size() ? before.peer_served[i] : 0, after.peer_served[i]);
    served_total += served;
    served_max = std::max(served_max, served);
  }
  const double peers = static_cast<double>(after.peer_served.size());
  const double request_p50_us = Percentile(trace.request_us, 50);
  return {
      {"p50_ms.lo", "ms", lo.LatencyP(50)},
      {"p99_ms.lo", "ms", lo.LatencyP(99)},
      {"p50_ms.hi", "ms", hi.LatencyP(50)},
      {"p99_ms.hi", "ms", hi.LatencyP(99)},
      {"max_rate_rps", "req/s", max_rate},
      {"cpu_us_per_req", "us", NsToUs(server_cpu.total_ns()) / completed},
      {"server.cpu_user_us_per_req", "us", NsToUs(server_cpu.user_ns) / completed},
      {"server.cpu_sys_us_per_req", "us", NsToUs(server_cpu.sys_ns) / completed},
      {"frontend.parse_us.p50", "us", span("http.parse", 50)},
      {"frontend.parse_us.p99", "us", span("http.parse", 99)},
      {"frontend.unmarshal_us.p50", "us", span("data.unmarshal", 50)},
      {"frontend.marshal_us.p50", "us", span("data.marshal", 50)},
      {"frontend.rejects", "count", delta(before.shed_429, after.shed_429)},
      {"dispatcher.submit_us.p50", "us", span("dispatch.submit", 50)},
      {"dispatcher.submit_us.p99", "us", span("dispatch.submit", 99)},
      {"dispatcher.instances_per_inv", "count",
       (delta(before.dispatcher.compute_instances, after.dispatcher.compute_instances) +
        delta(before.dispatcher.comm_instances, after.dispatcher.comm_instances)) /
           completed},
      {"dispatcher.bytes_copied_per_inv", "B",
       delta(before.dispatcher.bytes_copied, after.dispatcher.bytes_copied) / completed},
      {"dispatcher.bytes_aliased_per_inv", "B",
       delta(before.dispatcher.bytes_aliased, after.dispatcher.bytes_aliased) / completed},
      {"dispatcher.retries", "count", retried},
      {"dispatcher.sandbox_failures", "count",
       delta(before.dispatcher.sandbox_failures, after.dispatcher.sandbox_failures)},
      {"engine.queue_us.p50", "us", span("engine.queue", 50)},
      {"engine.queue_us.p99", "us", span("engine.queue", 99)},
      {"engine.run_us.p50", "us", span("run", 50)},
      {"engine.run_us.p99", "us", span("run", 99)},
      {"engine.compute_wait_us.p50", "us", static_cast<double>(after.engine.compute_wait_p50_us)},
      {"engine.compute_wait_us.p99", "us", static_cast<double>(after.engine.compute_wait_p99_us)},
      {"engine.comm_wait_us.p50", "us", static_cast<double>(after.engine.comm_wait_p50_us)},
      {"engine.comm_wait_us.p99", "us", static_cast<double>(after.engine.comm_wait_p99_us)},
      {"engine.steals_per_inv", "count",
       (delta(before.engine.compute_steals, after.engine.compute_steals) +
        delta(before.engine.comm_steals, after.engine.comm_steals)) /
           completed},
      {"engine.aborted", "count",
       aborted + delta(before.engine.comm_aborted, after.engine.comm_aborted)},
      {"sandbox.load_us.p50", "us", Percentile(probe.load_us, 50)},
      {"sandbox.setup_us.p50", "us", Percentile(probe.setup_us, 50)},
      {"sandbox.setup_us.p99", "us", Percentile(probe.setup_us, 99)},
      {"sandbox.execute_us.p50", "us", Percentile(probe.execute_us, 50)},
      {"sandbox.execute_us.p99", "us", Percentile(probe.execute_us, 99)},
      {"sandbox.output_us.p50", "us", Percentile(probe.output_us, 50)},
      {"sandbox.useful_ratio", "ratio",
       launched > 0 ? launched / (launched + aborted + retried) : 0},
      {"context_pool.hit_ratio", "ratio",
       pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0},
      {"memory.committed_mib.mean", "MiB", gauges.committed_mean()},
      {"memory.committed_mib.peak", "MiB", gauges.committed_peak()},
      {"comm.inflight.max", "count", gauges.comm_inflight_max()},
      {"controller.shifts", "count", delta(before.shifts, after.shifts)},
      {"controller.decisions", "count", delta(before.decisions, after.decisions)},
      {"controller.comm_workers.mean", "count", gauges.comm_workers_mean()},
      {"cluster.invoke_us.p50", "us", span("invoke", 50)},
      {"cluster.invoke_us.p99", "us", span("invoke", 99)},
      {"net.encode_us.p50", "us", span("net.encode", 50)},
      {"net.decode_us.p50", "us", span("net.decode", 50)},
      {"net.bytes_per_inv", "B",
       served_total > 0 ? delta(before.wire_bytes, after.wire_bytes) / served_total : 0},
      {"cluster.reroutes", "count", delta(before.reroutes, after.reroutes)},
      {"cluster.imbalance", "ratio", served_total > 0 ? served_max / (served_total / peers) : 1.0},
      {"self.frontend_us.p50", "us", self("frontend")},
      {"self.dispatcher_us.p50", "us", self("dispatcher")},
      {"self.engine_queue_us.p50", "us", self("engine.queue")},
      {"self.engine_run_us.p50", "us", self("engine.run")},
      {"self.invoke_us.p50", "us", self("invoke")},
      {"self.replay_us.p50", "us", self("replay")},
      {"trace.request_us.p50", "us", request_p50_us},
      {"trace.request_us.p99", "us", Percentile(trace.request_us, 99)},
      {"trace.closure_error", "ratio", trace.closure_error},
      {"trace_gap_ms", "ms", lo.LatencyP(50) - request_p50_us / 1000.0},
  };
}

int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  const double s = args.seconds;
  std::printf("== %s  seed %llu  %.0f s  trace %d  (rate lo %.0f / hi %.0f req/s, p99 limit %.1f ms)\n",
              spec.name, static_cast<unsigned long long>(args.seed), s, args.trace ? 1 : 0,
              spec.rate_lo, spec.rate_hi, spec.slo_ms);
  if (spec.id == Workload::kClusterWire &&
      access(SpawnedNode::BinaryPath().c_str(), X_OK) != 0) {
    return Fail("dandelion_node not found next to bench_e2e (" + SpawnedNode::BinaryPath() +
                "); build it with the bench_e2e target");
  }
  if (spec.id == Workload::kMatmulCold) {
    // A forked sandbox allocates from the malloc arena of the engine thread
    // that forked it. Growing a thread arena calls mprotect, which the
    // seccomp jail kills (README.md, "kProcess jail limitation"); after a
    // few kills the retry layer's circuit breaker fails every request. With
    // one arena, sandboxes allocate from the brk heap the jail permits.
    mallopt(M_ARENA_MAX, 1);
  }
  Inputs inputs = MakeInputs(spec, args.seed);
  // Forked while this process is still single-threaded.
  GeneratorProcess gen;
  if (const dbase::Status started =
          gen.Start(inputs, static_cast<int>(std::thread::hardware_concurrency()));
      !started.ok()) {
    return Fail("cannot start the load generator: " + started.ToString());
  }
  // The generator stands in for clients on other machines. The server side
  // (this process and everything it starts: threads, sandboxes, engine
  // nodes) runs at a lower priority, so it cannot starve the generator of a
  // core and delay requests before they are sent.
  (void)setpriority(PRIO_PROCESS, 0, kServerNice);

  std::vector<double> setup_s;
  for (int i = 0; !args.trace && i < kSetupRuns - 1; ++i) {
    const int64_t ns = ForkedSetUp(spec, inputs);
    if (ns < 0) {
      return Fail("set-up failed (loopback unavailable or the server did not answer)");
    }
    setup_s.push_back(static_cast<double>(ns) / 1e9);
  }
  int64_t setup_ns = 0;
  auto made = SetUp(spec, &inputs, &setup_ns);
  if (!made.ok()) {
    return Fail("set-up failed: " + made.status().ToString());
  }
  std::unique_ptr<Deployment> deployment = std::move(made).value();
  setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
  if (const dbase::Status connected = gen.Connect(deployment->port(), inputs.html_digest);
      !connected.ok()) {
    return Fail("loopback unavailable: " + connected.ToString());
  }
  bool generator_lost = false;
  uint64_t wrong = 0;
  const std::vector<pid_t> nodes = deployment->node_pids();
  // Runs `plan` window by window; `rss_mib`, when given, receives the
  // server's resident memory at the end of each window.
  const auto run = [&](const PhasePlan& plan, std::vector<double>* rss_mib) {
    std::vector<PhaseResult> parts;
    for (const PhasePlan& window : Windows(plan)) {
      auto result = gen.Run(window, args.seed);
      if (!result.ok()) {
        generator_lost = true;
        break;
      }
      if (rss_mib != nullptr) {
        rss_mib->push_back(ServerRssMib(nodes));
      }
      parts.push_back(std::move(result).value());
    }
    PhaseResult merged = PhaseResult::Merge(plan.name, parts);
    PrintPhase(merged);
    wrong += merged.wrong_body;
    return merged;
  };

  const double phase_s = (args.trace ? kPhaseShareTraced : kPhaseShare) * s;
  const PhasePlan lo_plan{"lo", spec.rate_lo, phase_s, 2};
  run({"warmup", spec.rate_lo, kWarmupShare * s, 1}, nullptr);
  std::unique_ptr<GaugeSampler> gauges;
  LayerCounters before;
  if (args.trace) {
    before = LayerCounters::Take(*deployment, FrontendShed(deployment->port()));
    gauges = std::make_unique<GaugeSampler>(*deployment);
  }
  const CpuTimes cpu_before = ServerCpu(nodes);
  const PhaseResult lo = run(lo_plan, nullptr);
  std::vector<double> hi_rss_mib;
  const PhaseResult hi = run({"hi", spec.rate_hi, phase_s, 3}, &hi_rss_mib);
  const CpuTimes server_cpu = ServerCpu(nodes) - cpu_before;

  uint64_t attempted = lo.sent + hi.sent;
  uint64_t failed = lo.failed() + hi.failed();
  std::vector<Metric> metrics;
  std::string detail;
  double closure_error = 0;
  if (!args.trace) {
    double rss_sum = 0;
    for (const double mib : hi_rss_mib) {
      rss_sum += mib;
    }
    const double values[] = {
        rss_sum / static_cast<double>(std::max<size_t>(1, hi_rss_mib.size())),
        Median(setup_s),
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    }
    std::string setups;
    for (const double v : setup_s) {
      setups += (setups.empty() ? "" : ",") + JsonNumber(v);
    }
    detail = ",\"setup_samples_s\":[" + setups + "]";
  } else {
    gauges->Stop();
    const LayerCounters after = LayerCounters::Take(*deployment, FrontendShed(deployment->port()));
    std::string ladder_json;
    const double max_rate = CapacityLadder(
        spec, hi, kStepShare * s, [&](const PhasePlan& plan) { return run(plan, nullptr); },
        &ladder_json);
    TraceSummary trace =
        Replay(*deployment, inputs, Windows(lo_plan), args.seed, !args.spans.empty());
    const SandboxProbe probe = ProbeSandbox(spec, deployment->platform(), inputs, kSandboxProbes);
    attempted += trace.replayed + probe.runs;
    failed += trace.failed + trace.wrong_body + probe.wrong_body;
    wrong += trace.wrong_body + probe.wrong_body;
    if (!args.spans.empty()) {
      FILE* out = std::fopen(args.spans.c_str(), "a");
      if (out == nullptr) {
        return Fail("cannot write " + args.spans);
      }
      WriteSpans(out, spec.name, trace.spans);
      std::fclose(out);
    }
    metrics = LayerMetrics(lo, hi, server_cpu, max_rate, before, after, *gauges, trace, probe);
    closure_error = trace.closure_error;
    std::printf("  traced replay: %llu requests, %llu failed, closure error %.1f%% (limit 10%%)\n",
                static_cast<unsigned long long>(trace.replayed),
                static_cast<unsigned long long>(trace.failed + trace.wrong_body),
                100 * trace.closure_error);
    detail = ",\"ladder\":[" + ladder_json + "],\"trace\":{\"replayed\":" +
             std::to_string(trace.replayed) +
             ",\"lag_p99_us\":" + JsonNumber(Percentile(trace.lag_us, 99)) +
             ",\"closure_error\":" + JsonNumber(trace.closure_error) +
             ",\"sandbox_probes\":" + std::to_string(probe.runs) + "}";
  }
  gen.Stop();
  deployment.reset();
  if (generator_lost) {
    return Fail("the load generator process exited");
  }

  const bool correct = wrong == 0;
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.out.empty()) {
    const std::string record =
        "{\"seed\":" + std::to_string(args.seed) + ",\"seconds\":" + JsonNumber(s) +
        ",\"trace\":" + (args.trace ? "true" : "false") + ",\"workloads\":{" +
        JsonString(spec.name) + ":{\"correct\":" + (correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) + ",\"failed\":" + std::to_string(failed) +
        ",\"metrics\":" + MetricsJson(metrics) + ",\"rate_lo\":" + JsonNumber(spec.rate_lo) +
        ",\"rate_hi\":" + JsonNumber(spec.rate_hi) + ",\"slo_ms\":" + JsonNumber(spec.slo_ms) +
        ",\"seccomp_jail\":" +
        (dandelion::SandboxCapabilities::Get().seccomp_filter ? "true" : "false") +
        ",\"phases\":{\"lo\":" + PhaseJson(lo) + ",\"hi\":" + PhaseJson(hi) + "}" + detail +
        "}}}\n";
    if (!WriteText(args.out, record)) {
      return Fail("cannot write " + args.out);
    }
  }
  // The median, not p99: on a shared virtual machine the hypervisor
  // preempts the generator for milliseconds at a time, which latency from
  // due time already charges to the requests it delays. A median above 1 ms
  // means the generator could not hold the schedule at all.
  if (lo.LagP(50) > kMaxLagUs || hi.LagP(50) > kMaxLagUs) {
    return Fail("generator lag p50 above 1 ms in a fixed-rate phase (lo " +
                std::to_string(lo.LagP(50)) + " us, hi " + std::to_string(hi.LagP(50)) +
                " us): the machine is too busy to measure on");
  }
  if (closure_error > kMaxClosureError) {
    return Fail("traced layer self times do not add up to the traced request time (closure error " +
                std::to_string(100 * closure_error) + " %, limit 10 %)");
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ all four

// Runs every workload in a fresh process (this binary with --workload), so
// set-up time and memory are per workload, then prints one table and
// writes the merged records to --out.
int RunAll(const Args& args) {
  const std::string out = args.out.empty() ? "e2e.json" : args.out;
  const std::string part = out + ".part";
  if (!args.spans.empty() && !WriteText(args.spans, "")) {  // Children append.
    return Fail("cannot write " + args.spans);
  }
  std::string merged;
  std::vector<std::pair<std::string, Json>> results;
  int status = 0;
  const int64_t start = NowNs();
  for (const WorkloadSpec& spec : kWorkloads) {
    std::vector<std::string> argv_strings = {
        "bench_e2e", "--workload=" + std::string(spec.name),
        "--seed=" + std::to_string(args.seed), "--seconds=" + JsonNumber(args.seconds),
        std::string("--trace=") + (args.trace ? "1" : "0"), "--out=" + part};
    if (!args.spans.empty()) {
      argv_strings.push_back("--spans=" + args.spans);
    }
    std::vector<char*> argv;
    for (std::string& a : argv_strings) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    std::remove(part.c_str());
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    int wait_status = 0;
    if (pid < 0 || waitpid(pid, &wait_status, 0) != pid || !WIFEXITED(wait_status) ||
        WEXITSTATUS(wait_status) != 0) {
      std::fprintf(stderr, "bench_e2e: workload %s failed\n", spec.name);
      status = 1;
    }
    const auto record = JsonParser::Parse(ReadFile(part));
    std::remove(part.c_str());
    const Json* workloads = record.has_value() ? record->Find("workloads") : nullptr;
    const Json* result = workloads != nullptr ? workloads->Find(spec.name) : nullptr;
    if (result == nullptr) {
      status = 1;
      continue;
    }
    merged += (merged.empty() ? "" : ",") + JsonString(spec.name) + ":" + result->Dump();
    results.emplace_back(spec.name, *result);
  }
  if (!WriteText(out, "{\"seed\":" + std::to_string(args.seed) + ",\"seconds\":" +
                          JsonNumber(args.seconds) + ",\"workloads\":{" + merged + "}}\n")) {
    return Fail("cannot write " + out);
  }
  std::printf("\n== summary: seed %llu, %.1f s for all workloads, written to %s\n",
              static_cast<unsigned long long>(args.seed), NsToMs(NowNs() - start) / 1000,
              out.c_str());
  for (const auto& [name, result] : results) {
    const Json* metrics = result.Find("metrics");
    const Json* correct = result.Find("correct");
    std::printf("%-13s correct=%s\n", name.c_str(),
                correct != nullptr && correct->boolean ? "true" : "false");
    for (const auto& [metric, entry] : metrics != nullptr ? metrics->object : std::map<std::string, Json>{}) {
      const Json* value = entry.Find("value");
      const Json* unit = entry.Find("unit");
      std::printf("  %-34s %14.4f %s\n", metric.c_str(), value != nullptr ? value->number : 0.0,
                  unit != nullptr ? unit->string.c_str() : "");
    }
  }
  return status;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.compare) {
    return e2e::Compare(args.claim, args.parent, args.change, "BENCHMARK.json");
  }
  if (!args.workload.empty()) {
    const e2e::WorkloadSpec* spec = e2e::FindWorkload(args.workload);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    return e2e::RunWorkload(*spec, args);
  }
  return e2e::RunAll(args);
}
