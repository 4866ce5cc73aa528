// Standalone Dandelion engine-node daemon (ROADMAP "Distributed data
// plane"): one Platform wrapped in a NodeAgent serving the dnet wire on a
// loopback TCP port. A parent process (the cluster tests, the macro replay
// bench, or a CI lane) spawns N of these, reads the "LISTENING <port>"
// handshake line from stdout, and points a Cluster router at the ports.
// SIGTERM/SIGINT shut the node down cleanly.
//
// Boot order is parse → bind → announce → build → serve. Flags and every
// composition are parsed first, so malformed input exits before the
// handshake: a bad flag with status 2, a bad composition with status 1.
// The node then binds its listener and prints
// "LISTENING <port>" — its only stdout line — and only then builds the
// Platform and starts the NodeAgent on the already-bound socket. A router
// may connect and send as soon as it reads the line: the kernel queues the
// connection and its frames until the agent's loop runs, so the node's
// start-up overlaps the router's own. A failure after the announcement
// (registration, agent start) exits with status 1, and the router sees
// the peer drop.
//
// Flags (--key=value). An unknown key, or a value that does not parse or is
// out of range, exits with status 2 before anything is bound:
//   --name=<node name>       gossip/logging identity            [node]
//   --port=<0..65535>        listen port, 0 = ephemeral         [0]
//   --workers=<n>            worker cores, at least 1           [4]
//   --control-plane=<0|1|true|false>
//                            enable the elasticity control loop [0]
//   --interactive-cap=<n>    admission cap, 0 = uncapped        [256]
//   --batch-cap=<n>          admission cap, 0 = uncapped        [256]
//                            (either cap at 0 gossips cap 0)
//   --backend=<name>         isolation backend, any name that
//                            IsolationBackendFromName accepts
//                            (thread or cheri, process)         [thread]
//   --dsl=<text>             extra composition DSL (repeatable)
//
// Out of the box the node registers the builtin compute functions (echo,
// matmul, array_stats, fail, spin), a "work" body that burns the decimal
// microsecond count carried in its input payload (the macro bench's unit of
// offered load), and the Id / Work / Fail compositions the cluster tests
// and the replay bench invoke — so a freshly spawned node can serve traffic
// with no further provisioning round-trip.
#include <cerrno>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <semaphore.h>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/base/string_util.h"
#include "src/dsl/graph.h"
#include "src/dsl/parser.h"
#include "src/func/builtins.h"
#include "src/net/frame_socket.h"
#include "src/runtime/node_agent.h"
#include "src/runtime/platform.h"

namespace {

sem_t g_shutdown;

void HandleSignal(int) { sem_post(&g_shutdown); }

// Burns CPU for the decimal microsecond count in the first "in" item
// (default 100us when absent/garbled), then echoes the inputs — the
// replay bench's knob for modelling per-invocation service time. Spins in
// slices so cancel/preemption stays responsive.
dbase::Status WorkFunction(dfunc::FunctionCtx& ctx) {
  dbase::Micros burn = 100;
  if (auto in = ctx.SingleInput("in"); in.ok()) {
    dbase::Micros parsed = 0;
    size_t digits = 0;
    for (char c : *in) {
      if (c < '0' || c > '9') break;
      parsed = parsed * 10 + (c - '0');
      if (++digits >= 9) break;
    }
    if (digits > 0) burn = parsed;
  }
  constexpr dbase::Micros kSliceUs = 500;
  while (burn > 0) {
    if (ctx.cancelled()) return dbase::Cancelled("work cancelled");
    const dbase::Micros slice = burn < kSliceUs ? burn : kSliceUs;
    dbase::SpinFor(slice);
    burn -= slice;
  }
  for (const auto& set : ctx.inputs()) {
    for (const auto& item : set.items) {
      ctx.EmitOutput("out", item.data, item.key);
    }
  }
  return dbase::OkStatus();
}

struct Flags {
  std::string name = "node";
  uint16_t port = 0;
  int workers = 4;
  bool control_plane = false;
  size_t interactive_cap = 256;
  size_t batch_cap = 256;
  dandelion::IsolationBackend backend = dandelion::IsolationBackend::kThread;
  std::vector<std::string> dsl;
};

// Parses `value` as a decimal integer in [min, max].
bool ParseBounded(const std::string& value, int64_t min, int64_t max, int64_t* out) {
  return dbase::ParseInt64(value, out) && *out >= min && *out <= max;
}

// Rejects any malformed or out-of-range value, so a typo never becomes a
// silent default.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    int64_t number = 0;
    bool valid = true;
    if (key == "name") {
      flags->name = value;
    } else if (key == "port") {
      valid = ParseBounded(value, 0, 65535, &number);
      flags->port = static_cast<uint16_t>(number);
    } else if (key == "workers") {
      valid = ParseBounded(value, 1, INT32_MAX, &number);
      flags->workers = static_cast<int>(number);
    } else if (key == "control-plane") {
      valid = value == "0" || value == "1" || value == "true" || value == "false";
      flags->control_plane = value == "1" || value == "true";
    } else if (key == "interactive-cap") {
      valid = ParseBounded(value, 0, INT64_MAX, &number);
      flags->interactive_cap = static_cast<size_t>(number);
    } else if (key == "batch-cap") {
      valid = ParseBounded(value, 0, INT64_MAX, &number);
      flags->batch_cap = static_cast<size_t>(number);
    } else if (key == "backend") {
      auto backend = dandelion::IsolationBackendFromName(value);
      valid = backend.ok();
      if (valid) flags->backend = *backend;
    } else if (key == "dsl") {
      flags->dsl.push_back(value);
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

constexpr const char* kDefaultCompositions[] = {
    "composition Id(in) => out { echo(in = all in) => (out = out); }",
    "composition Work(in) => out { work(in = all in) => (out = out); }",
    "composition Fail(in) => out { fail(in = all in) => (out = out); }",
};

// _Exit, not exit: after the Platform is built its engine threads are
// running, and static destructors and at-exit hooks (LeakSanitizer's, in
// sanitizer builds) racing them can deadlock the exit. stderr is unbuffered
// and stdout holds nothing unflushed, so nothing is lost.
void Must(const dbase::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
    std::_Exit(1);
  }
}

// Parses one DSL text into graphs, ready to register once a Platform exists.
dbase::Status ParseDsl(std::string_view dsl, std::vector<ddsl::CompositionGraph>* graphs) {
  ASSIGN_OR_RETURN(auto asts, ddsl::ParseCompositions(dsl));
  for (const auto& ast : asts) {
    ASSIGN_OR_RETURN(auto graph, ddsl::CompositionGraph::FromAst(ast));
    graphs->push_back(std::move(graph));
  }
  return dbase::OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  // Parse: bad flags or compositions exit before the handshake.
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  std::vector<ddsl::CompositionGraph> graphs;
  for (const char* dsl : kDefaultCompositions) {
    Must(ParseDsl(dsl, &graphs));
  }
  for (const std::string& dsl : flags.dsl) {
    Must(ParseDsl(dsl, &graphs));
  }

  sem_init(&g_shutdown, 0, 0);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // Bind and announce. fflush because the pipe to the parent is
  // block-buffered.
  auto listener = dnet::ListenLoopback(flags.port, 128);
  Must(listener.status());
  auto port = dnet::BoundPort(*listener);
  Must(port.status());
  std::printf("LISTENING %u\n", static_cast<unsigned>(*port));
  std::fflush(stdout);

  // Build and serve on the announced socket.
  dandelion::PlatformConfig config;
  config.num_workers = flags.workers;
  config.enable_control_plane = flags.control_plane;
  config.sleep_for_modeled_latency = false;
  config.backend = flags.backend;
  dandelion::Platform platform(config);
  Must(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}));
  Must(platform.RegisterFunction({.name = "matmul", .body = dfunc::MatMulFunction}));
  Must(platform.RegisterFunction({.name = "array_stats", .body = dfunc::ArrayStatsFunction}));
  Must(platform.RegisterFunction({.name = "fail", .body = dfunc::FailingFunction}));
  Must(platform.RegisterFunction({.name = "work", .body = WorkFunction}));
  for (ddsl::CompositionGraph& graph : graphs) {
    Must(platform.RegisterComposition(std::move(graph)));
  }

  dandelion::NodeAgentConfig agent_config;
  agent_config.node_name = flags.name;
  agent_config.listen_fd = *listener;
  agent_config.max_inflight_interactive = flags.interactive_cap;
  agent_config.max_inflight_batch = flags.batch_cap;
  dandelion::NodeAgent agent(&platform, agent_config);
  Must(agent.Start());

  while (sem_wait(&g_shutdown) != 0 && errno == EINTR) {
  }

  agent.Stop();
  platform.Shutdown();
  return 0;
}
