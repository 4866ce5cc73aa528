// Fault-contained untrusted execution: the seccomp-BPF syscall jail on the
// process backend, the failure taxonomy (distinct FailureKinds for jail
// kill, genuine crash, deadline kill, cancel kill — on the report and on
// a node's wire outcome when the callback fires), the one wait on a
// forked child (one sleep, a stop reaped at once, an invocation-deadline
// stop classified as a deadline kill on both backends), the dispatcher's
// policy-driven retries with per-function circuit breaking, and the
// deterministic fault-injection seams that drive all of it. A sandbox
// executor's jail mode is fixed when it is built, so jailed and unjailed
// executors run side by side. Jail assertions degrade to capability-checked
// skips on kernels without seccomp, where the process backend fails closed:
// it forks nothing and fails each instance kFailedPrecondition.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <linux/audit.h>
#include <linux/seccomp.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/thread.h"
#include "src/func/function.h"
#include "src/net/node_client.h"
#include "src/net/wire.h"
#include "src/runtime/fault.h"
#include "src/runtime/invocation.h"
#include "src/runtime/jail.h"
#include "src/runtime/node_agent.h"
#include "src/runtime/platform.h"
#include "src/runtime/sandbox.h"

#if defined(__SANITIZE_ADDRESS__)
// The crash case's SIGSEGV must end its jailed child as a plain signal:
// ASan's own SEGV report makes syscalls (ioctl) that the jail kills first,
// which would read as a jail kill.
extern "C" const char* __asan_default_options() { return "handle_segv=0"; }
#endif

namespace {

using dandelion::FaultInjector;
using dandelion::FaultPlan;
using dandelion::FaultPoint;
using dandelion::IsolationBackend;
using dandelion::JailMode;
using dandelion::SandboxCapabilities;
using dpolicy::FailureKind;
using dbase::kMicrosPerMilli;
using dbase::kMicrosPerSecond;

// Every test leaves the process-wide injector disarmed, armed or not.
class JailTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Get().Reset(); }
  void TearDown() override { FaultInjector::Get().Reset(); }
};

dandelion::PlatformConfig ProcessConfig() {
  dandelion::PlatformConfig config;
  config.num_workers = 3;
  config.backend = IsolationBackend::kProcess;
  config.sleep_for_modeled_latency = false;
  return config;
}

dandelion::PlatformConfig ThreadConfig() {
  dandelion::PlatformConfig config;
  config.num_workers = 3;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  return config;
}

dfunc::FunctionSpec EchoSpec(const char* name = "echo") {
  dfunc::FunctionSpec spec;
  spec.name = name;
  spec.context_bytes = 1 << 20;
  spec.body = [](dfunc::FunctionCtx& ctx) {
    auto input = ctx.SingleInput("in");
    ctx.EmitOutput("out", input.ok() ? *input : "none");
    return dbase::OkStatus();
  };
  return spec;
}

constexpr const char* kSingleDsl = R"(
composition Run(in) => out {
  echo(in = all in) => (out = out);
}
)";

dfunc::DataSetList OneInput(const char* data) {
  return {dfunc::DataSet{"in", {dfunc::DataItem{"", data}}}};
}

// ------------------------------------------------------ Capability probe

TEST_F(JailTest, CapabilityProbeIsStableAndDescriptive) {
  const SandboxCapabilities& caps = SandboxCapabilities::Get();
  EXPECT_FALSE(caps.detail.empty());
  // The probe is cached: a second read observes the identical answer.
  EXPECT_EQ(&caps, &SandboxCapabilities::Get());
  EXPECT_EQ(caps.seccomp_filter, SandboxCapabilities::Get().seccomp_filter);
}

// ------------------------------------------------------- Filter verdicts

// The verdict a filter returns and the jumps it took to get there.
struct Verdict {
  uint32_t action = 0;
  int jumps = 0;
};

// A classic-BPF evaluator for what the jail emits: 32-bit absolute loads
// from seccomp_data, K-operand jumps and K returns.
Verdict Evaluate(const dandelion::JailFilter& filter, const seccomp_data& data) {
  Verdict verdict;
  uint32_t acc = 0;
  for (size_t pc = 0; pc < filter.len; ++pc) {
    const sock_filter& insn = filter.insns[pc];
    if (insn.code == (BPF_LD | BPF_W | BPF_ABS)) {
      EXPECT_LE(insn.k + sizeof(acc), sizeof(data));
      std::memcpy(&acc, reinterpret_cast<const char*>(&data) + insn.k, sizeof(acc));
    } else if (insn.code == (BPF_RET | BPF_K)) {
      verdict.action = insn.k;
      return verdict;
    } else if (BPF_CLASS(insn.code) == BPF_JMP && BPF_SRC(insn.code) == BPF_K) {
      ++verdict.jumps;
      bool taken = false;
      switch (BPF_OP(insn.code)) {
        case BPF_JEQ: taken = acc == insn.k; break;
        case BPF_JGE: taken = acc >= insn.k; break;
        case BPF_JGT: taken = acc > insn.k; break;
        case BPF_JSET: taken = (acc & insn.k) != 0; break;
        default: ADD_FAILURE() << "unexpected jump " << insn.code; return verdict;
      }
      pc += taken ? insn.jt : insn.jf;
    } else {
      ADD_FAILURE() << "unexpected opcode " << insn.code << " at " << pc;
      return verdict;
    }
  }
  ADD_FAILURE() << "filter ran off its end";
  return verdict;
}

// For every syscall number 0-511, and for both sides of each argument gate,
// the built filter's verdict matches the allowlist, and no number takes
// more than a balanced tree's jumps to resolve. read(2) is on no side of
// any gate: a child reads no fd at all.
TEST(JailFilterTest, VerdictMatchesTheAllowlistForEveryNumber) {
#if defined(__x86_64__)
  constexpr uint32_t kArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
  constexpr uint32_t kArch = AUDIT_ARCH_AARCH64;
#else
  GTEST_SKIP() << "the jail does not support this architecture";
  constexpr uint32_t kArch = 0;
#endif
  const std::set<long> plain = {
      SYS_exit,          SYS_exit_group,  SYS_rt_sigreturn,  SYS_brk,        SYS_munmap,
      SYS_mremap,        SYS_madvise,     SYS_futex,         SYS_sched_yield, SYS_clock_gettime,
      SYS_clock_nanosleep, SYS_nanosleep, SYS_gettimeofday,  SYS_restart_syscall,
      SYS_membarrier,    SYS_getrandom};
  const std::set<long> gated = {SYS_write, SYS_mmap, SYS_mprotect};
  const dandelion::JailFilter filter = dandelion::BuildJailFilter();
  ASSERT_GT(filter.len, 0u);
  int max_jumps = 0;
  for (uint32_t nr = 0; nr < 512; ++nr) {
    // Arguments that pass every gate, and arguments that fail every gate.
    seccomp_data pass{};
    pass.arch = kArch;
    pass.nr = static_cast<int>(nr);
    pass.args[0] = STDERR_FILENO;
    pass.args[2] = PROT_READ | PROT_WRITE;
    pass.args[3] = MAP_PRIVATE | MAP_ANONYMOUS;
    seccomp_data fail = pass;
    fail.args[0] = 3;
    fail.args[2] = PROT_READ | PROT_EXEC;
    fail.args[3] = MAP_PRIVATE;

    const bool is_plain = plain.count(nr) > 0;
    const Verdict on_pass = Evaluate(filter, pass);
    const Verdict on_fail = Evaluate(filter, fail);
    EXPECT_EQ(on_pass.action, is_plain || gated.count(nr) > 0 ? SECCOMP_RET_ALLOW
                                                              : SECCOMP_RET_KILL_PROCESS)
        << "nr " << nr;
    EXPECT_EQ(on_fail.action, is_plain ? SECCOMP_RET_ALLOW : SECCOMP_RET_KILL_PROCESS)
        << "nr " << nr;
    max_jumps = std::max({max_jumps, on_pass.jumps, on_fail.jumps});
  }
  // Arch check, five tree levels over at most 20 rules, the exact match
  // and one argument gate; the old linear chain took up to 40.
  EXPECT_LE(max_jumps, 8);

  // read(2) is killed whatever fd it names.
  for (uint64_t fd : {0ull, 1ull, 2ull, 3ull, 7ull, 1023ull, 0xFFFFFFFFull, ~0ull}) {
    seccomp_data read_call{};
    read_call.arch = kArch;
    read_call.nr = SYS_read;
    read_call.args[0] = fd;
    EXPECT_EQ(Evaluate(filter, read_call).action, SECCOMP_RET_KILL_PROCESS) << "fd " << fd;
  }

  seccomp_data foreign{};
  foreign.arch = kArch ^ 1;  // Any other ABI is killed before its number is read.
  foreign.nr = SYS_exit;
  EXPECT_EQ(Evaluate(filter, foreign).action, SECCOMP_RET_KILL_PROCESS);
  seccomp_data high{};
  high.arch = kArch;
  high.nr = 0x40000000 | SYS_exit;  // x32 numbering on x86_64.
  EXPECT_EQ(Evaluate(filter, high).action, SECCOMP_RET_KILL_PROCESS);

  // Every child installs the same prebuilt program.
  ASSERT_EQ(dandelion::ColdJailFilter().len, filter.len);
  EXPECT_EQ(std::memcmp(dandelion::ColdJailFilter().insns, filter.insns,
                        filter.len * sizeof(sock_filter)),
            0);
}

// ------------------------------------------------------------- Jail kill

// A function that reaches for the filesystem. Jailed, the openat never
// returns — SECCOMP_RET_KILL_PROCESS delivers SIGSYS and the parent decodes
// kJailKill. On an executor built with the jail off, it is a harmless open.
dfunc::FunctionSpec FileGrabberSpec() {
  dfunc::FunctionSpec spec = EchoSpec();
  spec.body = [](dfunc::FunctionCtx& ctx) {
    const int fd = ::open("/dev/null", O_RDONLY);
    ctx.EmitOutput("out", fd >= 0 ? "opened" : "denied");
    if (fd >= 0) {
      ::close(fd);
    }
    return dbase::OkStatus();
  };
  return spec;
}

TEST_F(JailTest, ForbiddenSyscallIsKilledNotExecuted) {
  dandelion::Platform platform(ProcessConfig());
  ASSERT_TRUE(platform.RegisterFunction(FileGrabberSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("x");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));

  if (!SandboxCapabilities::Get().seccomp_filter) {
    // Fail closed: without seccomp the platform forks no child at all.
    ASSERT_FALSE(result.ok()) << "process function ran unjailed";
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kFailedPrecondition)
        << result.status().message();
    GTEST_SKIP() << "seccomp filters unavailable: " << SandboxCapabilities::Get().detail;
  }

  ASSERT_FALSE(result.ok()) << "jailed function escaped the syscall jail";
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kPermissionDenied)
      << result.status().message();
  const dandelion::InvocationReport report = handle.Report();
  EXPECT_EQ(report.failure_kind, FailureKind::kJailKill);
  // Deterministic function behaviour is never retried.
  EXPECT_EQ(report.retries_attempted, 0u);
}

// A process executor that requires the jail, on a kernel whose probe found
// no seccomp filter, forks nothing: the body never runs, and the failure is
// no sandbox fault, so the dispatcher neither retries it nor trips a breaker.
TEST_F(JailTest, RequiredJailWithoutSeccompForksNothing) {
  // Raised by the body if a child ever runs it: a shared page survives fork.
  void* page = mmap(nullptr, sizeof(std::atomic<int>), PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* ran = new (page) std::atomic<int>(0);
  dfunc::FunctionSpec marker = EchoSpec("marker");
  marker.body = [ran](dfunc::FunctionCtx& ctx) {
    ran->store(1);
    ctx.EmitOutput("out", "ran");
    return dbase::OkStatus();
  };
  SandboxCapabilities no_seccomp;
  no_seccomp.detail = "seccomp filter unavailable (probe failed)";
  const auto executor =
      dandelion::CreateSandboxExecutor(IsolationBackend::kProcess, JailMode::kRequired, no_seccomp);
  auto context = dandelion::MemoryContext::Create(marker.context_bytes, nullptr, true);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE((*context)->StoreInputSets(OneInput("x")).ok());

  const dandelion::ExecOutcome outcome =
      executor->Execute(marker, **context, dandelion::SandboxOptions{});
  EXPECT_EQ(outcome.status.code(), dbase::StatusCode::kFailedPrecondition)
      << outcome.status.ToString();
  EXPECT_NE(outcome.status.message().find("process backend unavailable"), std::string::npos)
      << outcome.status.message();
  EXPECT_EQ(outcome.failure, FailureKind::kNone);
  EXPECT_EQ(ran->load(), 0) << "a child ran the body unjailed";
  EXPECT_EQ(outcome.timings.setup_us, 0);
  munmap(page, sizeof(std::atomic<int>));
}

// The jail belongs to the executor, not the process: a jailed and an
// unjailed executor run the same file-opening body at once, and each keeps
// its own verdict on every run.
TEST_F(JailTest, JailModeIsPerExecutor) {
  if (!SandboxCapabilities::Get().seccomp_filter) {
    GTEST_SKIP() << "seccomp filters unavailable: " << SandboxCapabilities::Get().detail;
  }
  constexpr int kRuns = 50;
  const dfunc::FunctionSpec grabber = FileGrabberSpec();
  auto run = [&](JailMode mode, int* matched) {
    const auto executor = dandelion::CreateSandboxExecutor(IsolationBackend::kProcess, mode);
    for (int i = 0; i < kRuns; ++i) {
      auto context = dandelion::MemoryContext::Create(grabber.context_bytes, nullptr, true);
      ASSERT_TRUE(context.ok());
      ASSERT_TRUE((*context)->StoreInputSets(OneInput("x")).ok());
      const dandelion::ExecOutcome outcome =
          executor->Execute(grabber, **context, dandelion::SandboxOptions{});
      const bool ok = mode == JailMode::kRequired
                          ? outcome.failure == FailureKind::kJailKill
                          : outcome.status.ok() && outcome.outputs.size() == 1 &&
                                outcome.outputs[0].items[0].data == "opened";
      EXPECT_TRUE(ok) << (mode == JailMode::kRequired ? "jailed" : "unjailed") << " run " << i
                      << ": " << outcome.status.ToString();
      *matched += ok ? 1 : 0;
    }
  };
  int jailed = 0;
  int unjailed = 0;
  std::thread required(run, JailMode::kRequired, &jailed);
  std::thread off(run, JailMode::kOff, &unjailed);
  required.join();
  off.join();
  EXPECT_EQ(jailed, kRuns);
  EXPECT_EQ(unjailed, kRuns);
}

// Making memory executable is still outside the allowlist, even though
// plain mprotect (malloc arena growth) is inside it.
TEST_F(JailTest, ExecutableMprotectIsKilled) {
  dandelion::Platform platform(ProcessConfig());
  dfunc::FunctionSpec spec = EchoSpec();
  spec.body = [](dfunc::FunctionCtx& ctx) {
    void* page = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    const bool exec = page != MAP_FAILED && ::mprotect(page, 4096, PROT_READ | PROT_EXEC) == 0;
    ctx.EmitOutput("out", exec ? "executable" : "refused");
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(spec)).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("x");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  if (!SandboxCapabilities::Get().seccomp_filter) {
    GTEST_SKIP() << "seccomp filters unavailable: " << SandboxCapabilities::Get().detail;
  }
  ASSERT_FALSE(result.ok()) << "jailed function made memory executable";
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kPermissionDenied)
      << result.status().message();
  EXPECT_EQ(handle.Report().failure_kind, FailureKind::kJailKill);
}

// About 4 MiB held live in 64 KiB blocks: below the mmap threshold, so it
// comes from the forking engine thread's malloc arena, which glibc grows
// with mprotect. The jail must let that through.
TEST_F(JailTest, ArenaGrowthInsideTheJailSucceeds) {
  dandelion::Platform platform(ProcessConfig());
  dfunc::FunctionSpec spec = EchoSpec();
  spec.body = [](dfunc::FunctionCtx& ctx) {
    constexpr size_t kBlockBytes = 64 * 1024;
    std::vector<std::unique_ptr<char[]>> blocks;
    for (int i = 0; i < 64; ++i) {
      blocks.push_back(std::make_unique<char[]>(kBlockBytes));
      blocks.back()[kBlockBytes - 1] = static_cast<char>(i);
    }
    ctx.EmitOutput("out", std::to_string(blocks.size()) + " blocks");
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(spec)).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("x");
  auto result = platform.Invoke(std::move(request));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "64 blocks");
}

TEST_F(JailTest, PureInMemoryFunctionRunsJailedUnmodified) {
  dandelion::Platform platform(ProcessConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("pure");
  auto result = platform.Invoke(std::move(request));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "pure");
}

// ------------------------------------------------- Failure-kind taxonomy

// A genuine crash, not a jail kill: the store faults with SIGSEGV. UBSan's
// null check stays out of it, since its report makes syscalls (readlink)
// that the jail kills before the store runs.
__attribute__((no_sanitize("null"))) dbase::Status CrashOnNullStore(dfunc::FunctionCtx&) {
  volatile int* null_page = nullptr;
  *null_page = 1;
  return dbase::OkStatus();
}

// With retries disabled, each termination cause must surface its own
// FailureKind in the InvocationReport: a genuine SIGSEGV is kCrash, a spec
// timeout is kDeadlineKill, a client cancel is kCancelKill — and they map
// to different Status codes.
TEST_F(JailTest, CrashDeadlineAndCancelProduceDistinctKinds) {
  dandelion::PlatformConfig config = ProcessConfig();
  config.retry.enabled = false;  // Observe raw kinds, not retry outcomes.
  dandelion::Platform platform(config);

  dfunc::FunctionSpec crasher = EchoSpec("crasher");
  crasher.body = CrashOnNullStore;
  dfunc::FunctionSpec slow = EchoSpec("slow");
  slow.timeout_us = 30 * kMicrosPerMilli;
  slow.body = [](dfunc::FunctionCtx& ctx) {
    dbase::SpinFor(2 * kMicrosPerSecond);
    ctx.EmitOutput("out", "late");
    return dbase::OkStatus();
  };
  dfunc::FunctionSpec spinner = EchoSpec("spinner");
  spinner.body = [](dfunc::FunctionCtx& ctx) {
    dbase::SpinFor(2 * kMicrosPerSecond);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(crasher)).ok());
  ASSERT_TRUE(platform.RegisterFunction(std::move(slow)).ok());
  ASSERT_TRUE(platform.RegisterFunction(std::move(spinner)).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition RunCrash(in) => out { crasher(in = all in) => (out = out); }
composition RunSlow(in) => out { slow(in = all in) => (out = out); }
composition RunSpin(in) => out { spinner(in = all in) => (out = out); }
)")
                  .ok());

  {
    dandelion::InvocationRequest request;
    request.composition = "RunCrash";
    request.args = OneInput("x");
    dbase::Latch latch(1);
    dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
    auto handle = platform.Submit(std::move(request),
                                  [&](dbase::Result<dfunc::DataSetList> r) {
                                    result = std::move(r);
                                    latch.CountDown();
                                  });
    ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kInternal);
    EXPECT_EQ(handle.Report().failure_kind, FailureKind::kCrash);
  }
  {
    dandelion::InvocationRequest request;
    request.composition = "RunSlow";
    request.args = OneInput("x");
    dbase::Latch latch(1);
    dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
    auto handle = platform.Submit(std::move(request),
                                  [&](dbase::Result<dfunc::DataSetList> r) {
                                    result = std::move(r);
                                    latch.CountDown();
                                  });
    ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(handle.Report().failure_kind, FailureKind::kDeadlineKill);
  }
  {
    dandelion::InvocationRequest request;
    request.composition = "RunSpin";
    request.args = OneInput("x");
    dbase::Latch latch(1);
    dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
    auto handle = platform.Submit(std::move(request),
                                  [&](dbase::Result<dfunc::DataSetList> r) {
                                    result = std::move(r);
                                    latch.CountDown();
                                  });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    handle.Cancel();
    ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kCancelled);
    EXPECT_EQ(handle.Report().failure_kind, FailureKind::kCancelKill);
    EXPECT_EQ(handle.Report().phase, dandelion::InvocationPhase::kCancelled);
  }
}

// A node whose forked instance is killed by a cancel answers with the
// kill's kind: the invocation ends through that instance's report, so the
// kind is set when the node builds the outcome.
TEST_F(JailTest, CancelledForkedInvokeCarriesCancelKillOnTheWire) {
  dandelion::Platform platform(ProcessConfig());
  dfunc::FunctionSpec spinner = EchoSpec("spinner");
  spinner.body = [](dfunc::FunctionCtx& ctx) {
    dbase::SpinFor(5 * kMicrosPerSecond);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(spinner)).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition RunSpin(in) => out { spinner(in = all in) => (out = out); }")
                  .ok());
  dandelion::NodeAgent agent(&platform, dandelion::NodeAgentConfig{.node_name = "jailed"});
  if (!agent.Start().ok()) {
    GTEST_SKIP() << "loopback sockets unavailable";
  }
  // The client is reactor-only: drive it through a scope.
  dbase::EventLoop::Scope scope(dbase::EventLoop::Process());
  dnet::NodeClient client("router");
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(scope.Run([&] { client.AddPeer("jailed", agent.port()); }));

  dnet::WireInvoke invoke;
  invoke.composition = "RunSpin";
  invoke.args = OneInput("x");
  invoke.invocation_id = 1;
  dbase::Latch latch(1);
  dbase::Result<dnet::WireOutcome> outcome = dbase::Internal("no outcome");
  const dbase::Stopwatch watch;
  uint64_t request_id = 0;
  ASSERT_TRUE(scope.Run([&] {
    request_id = client.InvokeAsync("jailed", std::move(invoke), 10 * kMicrosPerSecond,
                                    [&](dbase::Result<dnet::WireOutcome> result) {
                                      outcome = std::move(result);
                                      latch.CountDown();
                                    });
  }));
  ASSERT_NE(request_id, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(scope.Run([&] { client.Cancel("jailed", request_id); }));
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  EXPECT_LT(watch.ElapsedMicros(), 2 * kMicrosPerSecond) << "the spinner ran to its end";
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->code, dbase::StatusCode::kCancelled);
  EXPECT_EQ(outcome->failure_kind, static_cast<uint8_t>(FailureKind::kCancelKill));
  client.Stop();
  agent.Stop();
}

// ----------------------------------------------------- The one child wait

// Spins until its cancelled() poll turns true, for at most 2 s: the thread
// backend's poll sees the stop, while a forked child's never turns and it
// spins until its parent kills it.
dbase::Status SpinUntilCancelled(dfunc::FunctionCtx& ctx) {
  const dbase::Stopwatch watch;
  while (!ctx.cancelled() && watch.ElapsedMicros() < 2 * kMicrosPerSecond) {
  }
  ctx.EmitOutput("out", "spun");
  return dbase::OkStatus();
}

// The invocation deadline stops a spinning instance as a deadline kill on
// either backend, whichever of the reactor's deadline timer and the
// sandbox's own clamped timeout ends it: a stop is classified by the
// reason the control recorded, never read as a cancel.
TEST_F(JailTest, InvocationDeadlineStopIsADeadlineKillOnBothBackends) {
  for (const IsolationBackend backend : {IsolationBackend::kProcess, IsolationBackend::kThread}) {
    dandelion::PlatformConfig config =
        backend == IsolationBackend::kProcess ? ProcessConfig() : ThreadConfig();
    config.retry.enabled = false;
    dandelion::Platform platform(config);
    dfunc::FunctionSpec spinner = EchoSpec("spinner");
    spinner.body = SpinUntilCancelled;
    ASSERT_TRUE(platform.RegisterFunction(std::move(spinner)).ok());
    ASSERT_TRUE(platform
                    .RegisterCompositionDsl(
                        "composition RunSpin(in) => out { spinner(in = all in) => (out = out); }")
                    .ok());
    int deadline_kills = 0;
    for (int run = 0; run < 20; ++run) {
      dandelion::InvocationRequest request;
      request.composition = "RunSpin";
      request.args = OneInput("x");
      request.deadline_us = dandelion::InvocationRequest::DeadlineIn(30 * kMicrosPerMilli);
      dbase::Latch latch(1);
      dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
      auto handle = platform.Submit(std::move(request),
                                    [&](dbase::Result<dfunc::DataSetList> r) {
                                      result = std::move(r);
                                      latch.CountDown();
                                    });
      ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
      EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
      // A thread-backend instance records its kind when it returns, which
      // may be after the callback.
      const dbase::Stopwatch waited;
      while (handle.Report().failure_kind == FailureKind::kNone &&
             waited.ElapsedMicros() < 5 * kMicrosPerSecond) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const FailureKind kind = handle.Report().failure_kind;
      EXPECT_EQ(kind, FailureKind::kDeadlineKill)
          << dandelion::IsolationBackendName(backend) << " run " << run << ": "
          << dpolicy::FailureKindName(kind);
      deadline_kills += kind == FailureKind::kDeadlineKill ? 1 : 0;
    }
    std::printf("[ deadline ] %s: %d of 20 runs ended as deadline_kill\n",
                std::string(dandelion::IsolationBackendName(backend)).c_str(), deadline_kills);
  }
}

// The calling thread's voluntary context switches so far.
uint64_t VoluntarySwitches() {
  std::ifstream status("/proc/thread-self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      return std::stoull(line.substr(line.find(':') + 1));
    }
  }
  ADD_FAILURE() << "no voluntary_ctxt_switches in /proc/thread-self/status";
  return 0;
}

// The forked child's wait is one sleep: the thread that runs Execute wakes
// when the child exits, not on a periodic re-check while it spins.
TEST_F(JailTest, WaitingOnAForkedChildSleepsOnce) {
  dfunc::FunctionSpec spinner = EchoSpec("spinner");
  spinner.body = [](dfunc::FunctionCtx& ctx) {
    dbase::SpinFor(20 * kMicrosPerMilli);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  const auto executor = dandelion::CreateSandboxExecutor(IsolationBackend::kProcess);
  auto context = dandelion::MemoryContext::Create(spinner.context_bytes, nullptr, true);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE((*context)->StoreInputSets(OneInput("x")).ok());
  dandelion::InvocationControl control(1, dandelion::PriorityClass::kInteractive, 0,
                                       dbase::MonotonicClock::Get()->NowMicros());
  dandelion::SandboxOptions options;
  options.control = &control;

  const uint64_t before = VoluntarySwitches();
  const dandelion::ExecOutcome outcome = executor->Execute(spinner, **context, options);
  const uint64_t switches = VoluntarySwitches() - before;
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GE(outcome.timings.execute_us, 20 * kMicrosPerMilli);  // The wait spanned the spin.
  EXPECT_LE(switches, 3u) << "voluntary switches of the waiting thread";
}

// Stops a spinning jailed child 50 times through Cancel() and 50 times
// through its invocation deadline (the reason the dispatcher's deadline
// timer records), each once the child's body runs, and times the stop to
// the reaped child. Each stop ends as its reason's kill, long before the
// child would have spun out: a lost wake shows, and nothing finer is bound.
TEST_F(JailTest, StoppedForkedChildIsKilledAndReapedAtOnce) {
  constexpr dbase::Micros kSpinUs = 2 * kMicrosPerSecond;
  // Raised by each child once its body runs: a shared page survives fork.
  void* page = mmap(nullptr, sizeof(std::atomic<int>), PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* running = new (page) std::atomic<int>(0);
  dfunc::FunctionSpec spinner = EchoSpec("spinner");
  spinner.body = [running](dfunc::FunctionCtx& ctx) {
    running->store(1);
    dbase::SpinFor(kSpinUs);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  const auto executor = dandelion::CreateSandboxExecutor(IsolationBackend::kProcess);
  const dbase::Clock* clock = dbase::MonotonicClock::Get();
  for (const dbase::StatusCode reason :
       {dbase::StatusCode::kCancelled, dbase::StatusCode::kDeadlineExceeded}) {
    const FailureKind expected = reason == dbase::StatusCode::kCancelled
                                     ? FailureKind::kCancelKill
                                     : FailureKind::kDeadlineKill;
    std::vector<dbase::Micros> latencies;
    for (int run = 0; run < 50; ++run) {
      auto context = dandelion::MemoryContext::Create(spinner.context_bytes, nullptr, true);
      ASSERT_TRUE(context.ok());
      ASSERT_TRUE((*context)->StoreInputSets(OneInput("x")).ok());
      dandelion::InvocationControl control(run + 1, dandelion::PriorityClass::kInteractive, 0,
                                           clock->NowMicros());
      dandelion::SandboxOptions options;
      options.control = &control;
      running->store(0);
      dandelion::ExecOutcome outcome;
      std::atomic<dbase::Micros> reaped_at{0};
      std::thread waiter([&] {
        outcome = executor->Execute(spinner, **context, options);
        reaped_at.store(clock->NowMicros());
      });
      while (running->load() == 0 && reaped_at.load() == 0) {
        std::this_thread::yield();
      }
      const dbase::Micros stopped_at = clock->NowMicros();
      if (reason == dbase::StatusCode::kCancelled) {
        control.Cancel();
      } else {
        control.RequestStop(reason);
      }
      waiter.join();
      const dbase::Micros latency = reaped_at.load() - stopped_at;
      latencies.push_back(latency);
      EXPECT_EQ(outcome.failure, expected)
          << "run " << run << ": " << outcome.status.ToString();
      EXPECT_LT(latency, kSpinUs) << "run " << run << ": the child spun out";
    }
    std::sort(latencies.begin(), latencies.end());
    std::printf("[ stop latency ] %s: p50 %lld us, p99 %lld us, max %lld us over %zu stops\n",
                std::string(dpolicy::FailureKindName(expected)).c_str(),
                static_cast<long long>(latencies[latencies.size() / 2]),
                static_cast<long long>(latencies[latencies.size() * 99 / 100]),
                static_cast<long long>(latencies.back()), latencies.size());
  }
  munmap(page, sizeof(std::atomic<int>));
}

// --------------------------------------------------- Retry recovers crash

TEST_F(JailTest, RetryRecoversInjectedCrashTransparently) {
  dandelion::Platform platform(ProcessConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  // Exactly one crash: the first child traps before producing an outcome,
  // the relaunch runs clean.
  FaultInjector::Get().Arm(FaultPoint::kChildCrashBeforeOutcome,
                           FaultPlan{.every_n = 1, .limit = 1});

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("survive");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "survive");

  // The client saw success; the report records the absorbed failure.
  const dandelion::InvocationReport report = handle.Report();
  EXPECT_EQ(report.retries_attempted, 1u);
  EXPECT_EQ(report.failure_kind, FailureKind::kCrash);
  const dandelion::DispatcherStats stats = platform.dispatcher_stats();
  EXPECT_GE(stats.sandbox_failures, 1u);
  EXPECT_GE(stats.retries_attempted, 1u);
}

// A child that tears the outcome header mid-write before dying must not
// poison the retry: the relaunch re-marshals the inputs into a fresh
// context instead of trusting the corrupted bytes.
TEST_F(JailTest, TornOutcomeIsDiscardedAndRetried) {
  dandelion::Platform platform(ProcessConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  FaultInjector::Get().Arm(FaultPoint::kChildCrashAfterPartialWrite,
                           FaultPlan{.every_n = 1, .limit = 1});

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("intact");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "intact");
  EXPECT_EQ(handle.Report().retries_attempted, 1u);
}

TEST_F(JailTest, TransientResourceExhaustionIsRetried) {
  dandelion::Platform platform(ThreadConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  FaultInjector::Get().Arm(FaultPoint::kTransientResourceExhausted,
                           FaultPlan{.every_n = 1, .limit = 1});

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("again");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  ASSERT_TRUE(result.ok()) << result.status().message();
  const dandelion::InvocationReport report = handle.Report();
  EXPECT_EQ(report.retries_attempted, 1u);
  EXPECT_EQ(report.failure_kind, FailureKind::kResourceExhausted);
}

// ------------------------------------------------------- Circuit breaker

TEST_F(JailTest, BreakerTripsFastFailsAndRecoversAfterCooldown) {
  dandelion::PlatformConfig config = ThreadConfig();
  config.retry.max_retries_interactive = 0;  // Every failure is terminal.
  config.retry.max_retries_batch = 0;
  config.retry.breaker_trip_after = 3;
  config.retry.breaker_cooldown_us = 50 * kMicrosPerMilli;
  dandelion::Platform platform(config);
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  // Three consecutive launch failures trip the breaker.
  FaultInjector::Get().Arm(FaultPoint::kTransientResourceExhausted,
                           FaultPlan{.every_n = 1, .limit = 3});
  for (int i = 0; i < 3; ++i) {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("doomed");
    auto result = platform.Invoke(std::move(request));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kResourceExhausted);
  }
  dandelion::DispatcherStats stats = platform.dispatcher_stats();
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breakers_open, 1);

  // While open: launches fast-fail kUnavailable without reaching a sandbox.
  {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("shed");
    auto result = platform.Invoke(std::move(request));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kUnavailable)
        << result.status().message();
  }
  stats = platform.dispatcher_stats();
  EXPECT_GE(stats.breaker_fast_fails, 1u);

  // After the cooldown the half-open probe is admitted; the fault is spent
  // (limit 3), so the probe succeeds and the breaker closes.
  FaultInjector::Get().Disarm(FaultPoint::kTransientResourceExhausted);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("probe");
    auto result = platform.Invoke(std::move(request));
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ((*result)[0].items[0].data, "probe");
  }
  stats = platform.dispatcher_stats();
  EXPECT_GE(stats.breaker_recoveries, 1u);
  EXPECT_EQ(stats.breakers_open, 0);
  const auto breakers = platform.breaker_snapshots();
  ASSERT_EQ(breakers.size(), 1u);
  EXPECT_EQ(breakers[0].function, "echo");
  EXPECT_EQ(breakers[0].state, dpolicy::BreakerState::kClosed);
}

}  // namespace
