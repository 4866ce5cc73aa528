// Invocation-API overload behavior: offered load ≥ 2× compute capacity,
// split into interactive and batch classes. Demonstrates that
//   (a) per-class admission control sheds excess batch load with 429
//       instead of queueing blindly,
//   (b) requests that carry deadlines answer 504 near the deadline instead
//       of waiting out the backlog, and
//   (c) the interactive class's p99 stays within 2× of its uncontended
//       value while a batch flood is running — the engine queues'
//       urgent lane at work.
//
// Gate (advisory; strict with DANDELION_OVERLOAD_BENCH_STRICT=1):
// interactive p99 under overload ≤ 2× uncontended, ≥ 1 shed 429, and every
// impossible-deadline request answered 504.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "src/runtime/fault.h"
#include "src/runtime/frontend.h"
#include "src/runtime/platform.h"

namespace {

// --------------------------------------------------------------- client

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

// A closed-loop keep-alive client: one request in flight, `requests` total.
ClientStats RunClient(uint16_t port, const std::string& wire, int requests) {
  ClientStats stats;
  int fd = ConnectTo(port);
  std::string carry;
  for (int i = 0; i < requests; ++i) {
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

ClientStats RunClientFleet(uint16_t port, const std::string& wire, int clients,
                           int requests_per_client) {
  std::vector<ClientStats> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] { results[static_cast<size_t>(c)] =
                                      RunClient(port, wire, requests_per_client); });
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

std::string InvokeWire(const std::string& composition,
                       const std::vector<std::pair<std::string, std::string>>& headers) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  request.headers.Add("X-Dandelion-Raw", "1");
  for (const auto& [name, value] : headers) {
    request.headers.Add(name, value);
  }
  request.body = "x";
  return request.Serialize();
}

}  // namespace

int main() {
  // Fixed-size engine pool so "2× capacity" means the same thing on every
  // machine: 4 workers → 3 compute engines; the 2 ms work function caps
  // compute capacity at ~1500 req/s, while the client fleet below offers a
  // concurrency of 28 closed-loop connections (≫ 2× capacity).
  constexpr int kWorkers = 4;
  constexpr int kInteractiveConns = 4;
  constexpr int kBatchConns = 24;
  constexpr dbase::Micros kWorkSpinUs = 2 * dbase::kMicrosPerMilli;
  constexpr dbase::Micros kSlowSpinUs = 20 * dbase::kMicrosPerMilli;

  int per_conn = 200;
  if (const char* env = std::getenv("DANDELION_OVERLOAD_BENCH_REQUESTS")) {
    uint64_t parsed = 0;
    if (dbase::ParseUint64(env, &parsed) && parsed > 0) {
      per_conn = static_cast<int>(parsed);
    }
  }

  dbench::PrintHeader("Invocation API under overload: 429 shedding, 504 deadlines, "
                      "interactive-vs-batch latency");
  dbench::PrintNote(dbase::StrFormat(
      "%d engine workers (%d compute), %lld us work function, %d interactive + %d batch "
      "closed-loop connections, %d requests per connection; batch in-flight cap 8",
      kWorkers, kWorkers - 1, static_cast<long long>(kWorkSpinUs), kInteractiveConns,
      kBatchConns, per_conn));

  dandelion::PlatformConfig platform_config;
  platform_config.num_workers = kWorkers;
  platform_config.backend = dandelion::IsolationBackend::kThread;
  platform_config.sleep_for_modeled_latency = false;
  dandelion::Platform platform(platform_config);
  const auto spin_body = [](dbase::Micros spin_us) {
    return [spin_us](dfunc::FunctionCtx& ctx) {
      const dbase::Micros until = dbase::MonotonicClock::Get()->NowMicros() + spin_us;
      while (dbase::MonotonicClock::Get()->NowMicros() < until && !ctx.cancelled()) {
        // Busy work with a cancellation poll, like a well-behaved function.
      }
      ctx.EmitOutput("out", "done");
      return dbase::OkStatus();
    };
  };
  if (!platform
           .RegisterFunction({.name = "work", .body = spin_body(kWorkSpinUs),
                              .context_bytes = 1 << 20})
           .ok() ||
      !platform
           .RegisterFunction({.name = "slowwork", .body = spin_body(kSlowSpinUs),
                              .context_bytes = 1 << 20})
           .ok() ||
      !platform
           .RegisterCompositionDsl(R"(
composition Work(in) => out { work(in = all in) => (out = out); }
composition SlowWork(in) => out { slowwork(in = all in) => (out = out); }
)")
           .ok()) {
    std::fprintf(stderr, "composition setup failed\n");
    return 1;
  }

  dandelion::FrontendConfig frontend_config;
  frontend_config.max_inflight_interactive = 64;  // Interactive is never shed here.
  frontend_config.max_inflight_batch = 8;         // Batch floods are.
  dandelion::HttpFrontend frontend(&platform, frontend_config);
  if (const dbase::Status started = frontend.Start(); !started.ok()) {
    dbench::PrintNote("SKIPPED: loopback sockets unavailable: " + started.ToString());
    return 0;
  }

  const std::string interactive_wire =
      InvokeWire("Work", {{"X-Dandelion-Priority", "interactive"}});
  // Admitted batch requests carry a 100 ms deadline: whatever the backlog
  // cannot serve in time answers 504 instead of rotting in the queue.
  const std::string batch_wire = InvokeWire(
      "Work", {{"X-Dandelion-Priority", "batch"}, {"X-Dandelion-Deadline-Ms", "100"}});
  const std::string impossible_wire =
      InvokeWire("SlowWork", {{"X-Dandelion-Deadline-Ms", "5"}});

  // Warm-up: prime engines and the loopback path.
  RunClientFleet(frontend.port(), interactive_wire, kInteractiveConns,
                 std::max(1, per_conn / 10));

  // Phase 1 — uncontended interactive baseline.
  const ClientStats uncontended =
      RunClientFleet(frontend.port(), interactive_wire, kInteractiveConns, per_conn);
  const dbase::Micros base_p50 = Percentile(uncontended.latencies_us, 50);
  const dbase::Micros base_p99 = Percentile(uncontended.latencies_us, 99);

  // Phase 2 — overload: the same interactive fleet with a 24-connection
  // batch flood behind it.
  ClientStats contended_interactive;
  ClientStats contended_batch;
  {
    std::thread batch_thread([&] {
      contended_batch =
          RunClientFleet(frontend.port(), batch_wire, kBatchConns, per_conn);
    });
    // Let the flood establish itself before measuring interactive latency.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    contended_interactive =
        RunClientFleet(frontend.port(), interactive_wire, kInteractiveConns, per_conn);
    batch_thread.join();
  }
  const dbase::Micros load_p50 = Percentile(contended_interactive.latencies_us, 50);
  const dbase::Micros load_p99 = Percentile(contended_interactive.latencies_us, 99);

  // Phase 3 — impossible deadlines: every request must answer 504 around
  // the 5 ms deadline, not the 20 ms execution.
  const ClientStats impossible =
      RunClientFleet(frontend.port(), impossible_wire, kInteractiveConns,
                     std::max(1, per_conn / 10));

  // Phase 4 — chaos: 1% of compute launches synthesize a sandbox-level
  // failure (kResourceExhausted via the fault injector). The dispatcher's
  // retry policy must absorb every injected fault within its budget — no
  // crash-kind failure may escape to the client as a 5xx — and the
  // interactive p99 must stay within 2× of the no-fault baseline.
  const dandelion::DispatcherStats before_chaos = platform.dispatcher_stats();
  dandelion::FaultInjector::Get().Arm(
      dandelion::FaultPoint::kTransientResourceExhausted,
      dandelion::FaultPlan{.every_n = 100});
  const ClientStats chaos =
      RunClientFleet(frontend.port(), interactive_wire, kInteractiveConns, per_conn);
  // Count injected faults from the injector itself: the dispatcher's
  // sandbox_failures delta can be polluted by phase-3 deadline-kill
  // outcomes that land asynchronously after before_chaos was captured.
  uint64_t chaos_faults = 0;
  for (const auto& snap : dandelion::FaultInjector::Get().Snapshot()) {
    if (snap.point == dandelion::FaultPoint::kTransientResourceExhausted) {
      chaos_faults = snap.fired;
    }
  }
  dandelion::FaultInjector::Get().Reset();
  const dandelion::DispatcherStats after_chaos = platform.dispatcher_stats();
  const dbase::Micros chaos_p99 = Percentile(chaos.latencies_us, 99);
  const uint64_t chaos_retries =
      after_chaos.retries_attempted - before_chaos.retries_attempted;

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
  row("overload", "interactive", contended_interactive);
  row("overload", "batch", contended_batch);
  row("impossible-deadline", "interactive", impossible);
  row("chaos-1pct-faults", "interactive", chaos);
  table.Print();

  // Surface the new dispatcher lifecycle counters in the bench JSON, so
  // trajectory tracking sees cancellations/deadline kills per run.
  const dandelion::DispatcherStats dispatcher = platform.dispatcher_stats();
  const dandelion::EngineStats engine = platform.engine_stats();
  dbench::Table counters({"counter", "value"});
  const auto counter = [&counters](const char* name, uint64_t value) {
    counters.AddRow({name, std::to_string(value)});
  };
  counter("invocations_started", dispatcher.invocations_started);
  counter("invocations_completed", dispatcher.invocations_completed);
  counter("invocations_cancelled", dispatcher.invocations_cancelled);
  counter("invocations_deadline_exceeded", dispatcher.invocations_deadline_exceeded);
  counter("inflight_interactive", dispatcher.inflight_interactive);
  counter("inflight_batch", dispatcher.inflight_batch);
  counter("compute_instances", dispatcher.compute_instances);
  counter("engine_compute_aborted", engine.compute_aborted);
  counter("sandbox_failures", dispatcher.sandbox_failures);
  counter("retries_attempted", dispatcher.retries_attempted);
  counter("retries_denied", dispatcher.retries_denied);
  counter("breaker_fast_fails", dispatcher.breaker_fast_fails);
  counter("chaos_injected_faults", chaos_faults);
  counter("chaos_retries", chaos_retries);
  counters.Print();

  const double p99_ratio =
      base_p99 > 0 ? static_cast<double>(load_p99) / static_cast<double>(base_p99) : 0.0;
  const bool latency_ok = p99_ratio > 0 && p99_ratio <= 2.0;
  const bool shed_ok = contended_batch.shed429 > 0;
  const uint64_t impossible_total = impossible.ok200 + impossible.shed429 +
                                    impossible.deadline504 + impossible.other +
                                    impossible.transport_errors;
  const bool deadline_ok =
      impossible_total > 0 && impossible.deadline504 == impossible_total;
  dbench::PrintNote(dbase::StrFormat(
      "interactive p99 %.2f ms uncontended -> %.2f ms under overload (%.2fx; gate <= 2x): "
      "%s",
      dbase::MicrosToMillis(base_p99), dbase::MicrosToMillis(load_p99), p99_ratio,
      latency_ok ? "PASS" : "FAIL"));
  dbench::PrintNote(dbase::StrFormat("batch flood shed with 429: %llu of %llu (%s)",
                                     static_cast<unsigned long long>(contended_batch.shed429),
                                     static_cast<unsigned long long>(
                                         contended_batch.shed429 + contended_batch.ok200 +
                                         contended_batch.deadline504 + contended_batch.other),
                                     shed_ok ? "PASS" : "FAIL"));
  dbench::PrintNote(dbase::StrFormat(
      "impossible 5 ms deadline on 20 ms work: %llu/%llu answered 504 (%s); "
      "interactive p50 %.2f -> %.2f ms",
      static_cast<unsigned long long>(impossible.deadline504),
      static_cast<unsigned long long>(impossible_total), deadline_ok ? "PASS" : "FAIL",
      dbase::MicrosToMillis(base_p50), dbase::MicrosToMillis(load_p50)));

  // Chaos gates: the p99 must not fall off a cliff under a 1% fault rate,
  // and every injected fault must be absorbed by the retry budget (every
  // chaos response is a 200 — a single transient can never exhaust the
  // interactive budget, so any 5xx here is a retry-path bug).
  const double chaos_ratio =
      base_p99 > 0 ? static_cast<double>(chaos_p99) / static_cast<double>(base_p99) : 0.0;
  const bool chaos_latency_ok = chaos_ratio > 0 && chaos_ratio <= 2.0;
  const uint64_t chaos_total = chaos.ok200 + chaos.shed429 + chaos.deadline504 +
                               chaos.other + chaos.transport_errors;
  const bool chaos_contained_ok =
      chaos_total > 0 && chaos.ok200 == chaos_total && chaos_faults > 0 &&
      chaos_retries >= chaos_faults;
  dbench::PrintNote(dbase::StrFormat(
      "chaos (1%% injected sandbox faults): %llu faults absorbed by %llu retries, "
      "%llu/%llu responses 200, p99 %.2f ms (%.2fx of no-fault; gate <= 2x): %s",
      static_cast<unsigned long long>(chaos_faults),
      static_cast<unsigned long long>(chaos_retries),
      static_cast<unsigned long long>(chaos.ok200),
      static_cast<unsigned long long>(chaos_total), dbase::MicrosToMillis(chaos_p99),
      chaos_ratio, (chaos_latency_ok && chaos_contained_ok) ? "PASS" : "FAIL"));

  if (const char* strict = std::getenv("DANDELION_OVERLOAD_BENCH_STRICT");
      strict != nullptr && strict[0] == '1') {
    return (latency_ok && shed_ok && deadline_ok && chaos_latency_ok && chaos_contained_ok)
               ? 0
               : 1;
  }
  return 0;
}
