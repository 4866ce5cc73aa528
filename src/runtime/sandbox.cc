#include "src/runtime/sandbox.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "src/base/string_util.h"
#include "src/func/function.h"
#include "src/runtime/fault.h"
#include "src/runtime/jail.h"

namespace dandelion {

std::string_view IsolationBackendName(IsolationBackend backend) {
  switch (backend) {
    case IsolationBackend::kProcess:
      return "process";
    case IsolationBackend::kThread:
      return "cheri";
    case IsolationBackend::kKvmSim:
      return "kvm";
    case IsolationBackend::kWasmSim:
      return "rwasm";
  }
  return "?";
}

dbase::Result<IsolationBackend> IsolationBackendFromName(std::string_view name) {
  if (name == "process") {
    return IsolationBackend::kProcess;
  }
  if (name == "cheri" || name == "thread") {
    return IsolationBackend::kThread;
  }
  if (name == "kvm") {
    return IsolationBackend::kKvmSim;
  }
  if (name == "rwasm" || name == "wasm") {
    return IsolationBackend::kWasmSim;
  }
  return dbase::InvalidArgument("unknown isolation backend: " + std::string(name));
}

BackendCostModel BackendCostModel::Defaults(IsolationBackend backend) {
  BackendCostModel costs;
  switch (backend) {
    case IsolationBackend::kThread:
      // CHERI row of Table 1: no thread spawn, cheap executable load.
      costs.setup_us = 0;
      break;
    case IsolationBackend::kKvmSim:
      // KVM on x86 (Linux 5.15): ~218 us total for a 1x1 matmul; the VM
      // enter/exit + vCPU reset portion is the setup surcharge.
      costs.setup_us = 150;
      break;
    case IsolationBackend::kWasmSim:
      // rWasm: fast isolation but "mainly limited by slow dynamic loading"
      // (§7.2) and slower generated code (§7.3).
      costs.setup_us = 10;
      costs.load_disk_us_per_mb = 500.0;
      costs.load_disk_base_us = 80.0;
      costs.load_cached_us_per_mb = 120.0;
      costs.load_cached_base_us = 40.0;
      costs.compute_slowdown = 2.4;
      break;
    case IsolationBackend::kProcess:
      // Fork cost is real; nothing injected.
      costs.setup_us = 0;
      break;
  }
  return costs;
}

namespace {

dbase::Micros LoadCost(const BackendCostModel& costs, uint64_t binary_bytes, bool cached) {
  const double mb = static_cast<double>(binary_bytes) / (1024.0 * 1024.0);
  const double us = cached ? costs.load_cached_base_us + costs.load_cached_us_per_mb * mb
                           : costs.load_disk_base_us + costs.load_disk_us_per_mb * mb;
  return static_cast<dbase::Micros>(us);
}

dbase::Micros EffectiveTimeout(const dfunc::FunctionSpec& spec, const SandboxOptions& options) {
  return options.timeout_us > 0 ? options.timeout_us : spec.timeout_us;
}

// Runs the function body in-process against a context already holding
// marshalled inputs, leaving the outcome in the context: inline for the
// thread-flavoured backends, inside the child for kProcess. `cancel_flag`
// and `deadline_us` feed the body's cancelled() poll; forked children pass
// neither, because the parent SIGKILLs them. `preloaded_inputs`, when
// non-null, bypasses LoadInputSets — the in-process zero-copy input path.
dbase::Status RunFunctionBodyAgainstContext(
    const dfunc::FunctionSpec& spec, MemoryContext& context,
    const std::atomic<bool>* cancel_flag = nullptr,
    dbase::Micros deadline_us = dfunc::FunctionCtx::kNoDeadline,
    const dfunc::DataSetList* preloaded_inputs = nullptr) {
  dfunc::DataSetList input_sets;
  if (preloaded_inputs != nullptr) {
    // By-reference handoff: copying the list is refcount bumps for aliased
    // payloads, not byte copies.
    input_sets = *preloaded_inputs;
  } else {
    auto inputs = context.LoadInputSets();
    if (!inputs.ok()) {
      (void)context.StoreOutcome(inputs.status(), {});
      return inputs.status();
    }
    input_sets = std::move(inputs).value();
  }
  dfunc::FunctionCtx ctx(std::move(input_sets));
  ctx.set_cancel_flag(cancel_flag);
  ctx.set_deadline(deadline_us);
  dbase::Status status = spec.body(ctx);
  if (status.ok()) {
    status = ctx.CollectFsOutputs();
  }
  (void)context.StoreOutcome(status, ctx.outputs());
  return status;
}

// Reads the outcome a finished body left in the context: zero-copy when the
// caller pins the context, copying otherwise (warm sandboxes recycle the
// context right after).
void ReadBackOutputs(const MemoryContext& context, const SandboxOptions& options,
                     ExecOutcome& outcome) {
  auto outputs = options.context_keepalive != nullptr
                     ? context.LoadOutputSetsAliased(options.context_keepalive)
                     : context.LoadOutputSets();
  if (outputs.ok()) {
    outcome.outputs = std::move(outputs).value();
    outcome.status = dbase::OkStatus();
  } else {
    outcome.status = outputs.status();
  }
}

// ---------------------------------------------------------------------------
// Thread-based sandbox (CHERI stand-in) + the cost-injecting variants.
// Executes inline on the engine's core — run-to-completion, no context
// switch (§5) — with a deadline the body polls providing cooperative
// preemption.
// ---------------------------------------------------------------------------
class ThreadSandbox : public SandboxExecutor {
 public:
  ThreadSandbox(IsolationBackend backend, BackendCostModel costs)
      : backend_(backend), costs_(costs) {}

  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext& context,
                      const SandboxOptions& options) override {
    ExecOutcome outcome;
    outcome.timings.pool_hit = options.prewarmed;
    dbase::Stopwatch watch;

    // Binary load (modelled; §7.4 cached vs. uncached), then the sandbox
    // setup surcharge (VM enter for kvm-sim, runtime init for wasm-sim;
    // zero for the CHERI stand-in — its point is that a sandbox is just a
    // capability switch within the address space). A pre-warmed sandbox
    // paid both at pool-fill time — nothing to pay here, and the timing
    // rows must say so (setup_us distinguishes pool-hit 0 from a cold
    // create).
    if (!options.prewarmed) {
      dbase::SpinFor(LoadCost(costs_, spec.binary_bytes, options.binary_cached));
      outcome.timings.load_us = watch.ElapsedMicros();
      watch.Restart();
      dbase::SpinFor(costs_.setup_us);
      outcome.timings.setup_us = watch.ElapsedMicros();
    }

    // Execute inline with a cooperative deadline: the body's cancelled()
    // poll turns true once the deadline passes or the invocation's cancel
    // flag flips. A body that returns at or after the deadline timed out
    // unless it was cancelled externally.
    watch.Restart();
    const dbase::Micros timeout = EffectiveTimeout(spec, options);
    const dbase::Micros deadline = dbase::MonotonicClock::Get()->NowMicros() + timeout;
    (void)RunFunctionBodyAgainstContext(spec, context, options.cancel_flag, deadline,
                                        options.input_sets.get());
    const bool externally_cancelled =
        options.cancel_flag != nullptr && options.cancel_flag->load(std::memory_order_relaxed);
    const bool timed_out =
        !externally_cancelled && dbase::MonotonicClock::Get()->NowMicros() >= deadline;
    dbase::Micros exec = watch.ElapsedMicros();

    // Emulate slower generated code by stretching execution time.
    if (costs_.compute_slowdown > 1.0 && !timed_out && !externally_cancelled) {
      const auto extra = static_cast<dbase::Micros>(
          static_cast<double>(exec) * (costs_.compute_slowdown - 1.0));
      dbase::SpinFor(extra);
      exec += extra;
    }
    outcome.timings.execute_us = exec;

    watch.Restart();
    if (externally_cancelled) {
      outcome.failure = dpolicy::FailureKind::kCancelKill;
      outcome.status = dbase::Cancelled(
          dbase::StrFormat("function '%s' cancelled", spec.name.c_str()));
    } else if (timed_out) {
      outcome.failure = dpolicy::FailureKind::kDeadlineKill;
      outcome.status = dbase::DeadlineExceeded(
          dbase::StrFormat("function '%s' exceeded %lld us timeout", spec.name.c_str(),
                           static_cast<long long>(timeout)));
    } else {
      ReadBackOutputs(context, options, outcome);
    }
    outcome.timings.output_us = watch.ElapsedMicros();
    return outcome;
  }

  IsolationBackend backend() const override { return backend_; }

 private:
  IsolationBackend backend_;
  BackendCostModel costs_;
};

// ---------------------------------------------------------------------------
// Process sandbox children: the one fork, wait and read-back behind both
// the cold backend and the pool's parked templates.
// ---------------------------------------------------------------------------

// How long a parked child may take to ack after fork. Arming runs off the
// critical path (the pool's fill), so a generous bound costs nothing.
constexpr int kParkAckTimeoutMs = 200;

// The longest a waiting worker sleeps between checks of the stop flag: a
// cancel lands within this bound, while the child's exit wakes the worker
// at once.
constexpr dbase::Micros kStopCheckUs = 1000;

template <typename Call>
auto RetryOnEintr(Call call) {
  decltype(call()) n;
  do {
    n = call();
  } while (n < 0 && errno == EINTR);
  return n;
}

// Jail and fault-point decisions for one child, taken before fork. A
// pooled child is sampled at arm time: the child is the unit of injection.
struct ChildPlan {
  bool install_jail = false;
  bool crash_before = false;
  bool crash_partial = false;
  bool forbidden_syscall = false;
};

ChildPlan SampleChildPlan() {
  FaultInjector& faults = FaultInjector::Get();
  ChildPlan plan;
  plan.install_jail = SyscallJailEnabled() && SandboxCapabilities::Get().seccomp_filter;
  plan.crash_before = faults.ShouldFire(FaultPoint::kChildCrashBeforeOutcome);
  plan.crash_partial = faults.ShouldFire(FaultPoint::kChildCrashAfterPartialWrite);
  plan.forbidden_syscall = faults.ShouldFire(FaultPoint::kChildForbiddenSyscall);
  return plan;
}

// Escape for the fork-safety probe's allocation: a volatile store keeps the
// malloc/free pair from being elided.
void* volatile probe_sink = nullptr;

// The child body. The memory context is MAP_SHARED, so outcome writes are
// plain stores the parent can read — and with the seccomp jail installed,
// that is the child's *only* channel. Any syscall outside the completion set
// kills it with SIGSYS, which the parent decodes as kJailKill.
[[noreturn]] void RunChild(const dfunc::FunctionSpec& spec, MemoryContext& context,
                           const ChildPlan& plan, int park_fd, const JailFilter* jail) {
  if (park_fd >= 0) {
    // Fork-safety probe (DESIGN.md): exercise the allocator the body will
    // need, then ack. A child that inherited a held malloc lock wedges right
    // here — before the ack — so the parent retires it instead of shelving
    // a time bomb.
    void* probe = malloc(64);
    probe_sink = probe;
    free(probe);
    const char ack = 'a';
    (void)RetryOnEintr([&] { return send(park_fd, &ack, 1, MSG_NOSIGNAL); });
  }
  // Confinement starts after a parked child's ack (the probe needs the
  // allocator's full freedom) and before the park, so the whole parked
  // lifetime is jailed; its only read is the go byte.
  if (jail != nullptr && InstallSyscallJail(*jail) != 0) {
    _exit(125);  // Jail refused to install: fail closed, never run unjailed.
  }
  if (park_fd >= 0) {
    char go = 0;
    if (RetryOnEintr([&] { return read(park_fd, &go, 1); }) != 1) {
      _exit(0);  // EOF: retired before dispatch, the body never runs.
    }
  }
  if (plan.crash_before) __builtin_trap();
  if (plan.forbidden_syscall) {
    // Behaves like a confined function opening a file: under the jail this
    // call never returns; unjailed it is a harmless open+leak.
    (void)syscall(SYS_openat, AT_FDCWD, "/dev/null", O_RDONLY);
  }
  (void)RunFunctionBodyAgainstContext(spec, context);
  if (plan.crash_partial) {
    // Tear the outcome the body just wrote — plausible header, garbage
    // length — then die. The parent must discard the context and any retry
    // must re-marshal inputs instead of trusting these bytes.
    ContextHeader torn;
    torn.state = 0;
    torn.payload_len = context.capacity();
    context.WriteHeader(torn);
    __builtin_trap();
  }
  _exit(0);
}

// The parent half of the fork-safety probe: one ack byte in time.
bool ReceiveAck(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  char ack = 0;
  return RetryOnEintr([&] { return poll(&pfd, 1, kParkAckTimeoutMs); }) > 0 &&
         RetryOnEintr([&] { return recv(fd, &ack, 1, 0); }) == 1;
}

void KillAndReap(pid_t pid) {
  kill(pid, SIGKILL);
  (void)RetryOnEintr([&] { return waitpid(pid, nullptr, 0); });
}

enum class ChildEnd { kExited, kCancelled, kTimedOut, kNoPidfd, kReapFailed };

struct ChildWait {
  ChildEnd end = ChildEnd::kExited;
  int status = 0;  // The waitpid status once reaped.
};

// The one wait on a sandbox child. It sleeps in poll on a pidfd, so waiting
// costs the worker no CPU and the child's exit wakes it at once; every wake
// re-checks the stop flag and the deadline, at least each kStopCheckUs.
// Any end but the child's own exit SIGKILLs it; the child is always reaped.
ChildWait WaitChild(pid_t pid, dbase::Micros deadline, const std::atomic<bool>* stop_flag) {
  ChildWait wait;
  const int pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    wait.end = ChildEnd::kNoPidfd;
  } else {
    const dbase::Clock* clock = dbase::MonotonicClock::Get();
    pollfd pfd{pidfd, POLLIN, 0};
    while (true) {
      const dbase::Micros slice =
          std::clamp<dbase::Micros>(deadline - clock->NowMicros(), 0, kStopCheckUs);
      const timespec timeout{0, static_cast<long>(slice * 1000)};
      if (ppoll(&pfd, 1, &timeout, nullptr) > 0) {
        break;
      }
      if (stop_flag != nullptr && stop_flag->load(std::memory_order_relaxed)) {
        wait.end = ChildEnd::kCancelled;
        break;
      }
      if (clock->NowMicros() >= deadline) {
        wait.end = ChildEnd::kTimedOut;
        break;
      }
    }
    close(pidfd);
  }
  if (wait.end != ChildEnd::kExited) {
    kill(pid, SIGKILL);
  }
  if (RetryOnEintr([&] { return waitpid(pid, &wait.status, 0); }) != pid &&
      wait.end == ChildEnd::kExited) {
    wait.end = ChildEnd::kReapFailed;
  }
  return wait;
}

// Classifies a death the parent did not cause (deadline and cancel kills are
// resolved before this: the parent knows why it killed). Returns false for
// a clean exit, leaving `outcome` untouched.
bool DecodeWaitStatus(int wait_status, const std::string& function_name, ExecOutcome& outcome) {
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (sig == SIGSYS) {
      // SECCOMP_RET_KILL_PROCESS delivers SIGSYS: the function attempted a
      // syscall outside the jail's completion set. That is the function's
      // own deterministic behaviour — permission denied, never retried.
      outcome.failure = dpolicy::FailureKind::kJailKill;
      outcome.status = dbase::PermissionDenied(
          dbase::StrFormat("function '%s' killed by syscall jail (SIGSYS): attempted a "
                           "forbidden syscall",
                           function_name.c_str()));
    } else {
      outcome.failure = dpolicy::FailureKind::kCrash;
      outcome.status = dbase::Internal(dbase::StrFormat("function '%s' crashed with signal %d",
                                                        function_name.c_str(), sig));
    }
    return true;
  }
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    outcome.failure = dpolicy::FailureKind::kNonzeroExit;
    outcome.status = dbase::Internal(
        dbase::StrFormat("function '%s' exited abnormally", function_name.c_str()));
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Process sandbox: real fork-based isolation, one fresh child per execution.
// ---------------------------------------------------------------------------
class ProcessSandbox : public SandboxExecutor {
 public:
  explicit ProcessSandbox(BackendCostModel costs) : costs_(costs) {}

  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext& context,
                      const SandboxOptions& options) override {
    ExecOutcome outcome;
    if (!context.shared()) {
      outcome.status =
          dbase::FailedPrecondition("process sandbox requires a shared memory context");
      return outcome;
    }
    dbase::Stopwatch watch;
    if (!options.prewarmed) {
      dbase::SpinFor(LoadCost(costs_, spec.binary_bytes, options.binary_cached));
    }
    outcome.timings.load_us = watch.ElapsedMicros();

    watch.Restart();
    const SandboxChild child = ForkSandboxChild(spec, context, /*park=*/false);
    if (child.pid < 0) {
      outcome.failure = dpolicy::FailureKind::kResourceExhausted;
      outcome.status = dbase::ResourceExhausted("fork failed");
      return outcome;
    }
    outcome.timings.setup_us = watch.ElapsedMicros();
    return AwaitSandboxChild(child.pid, spec, context, options, outcome.timings);
  }

  IsolationBackend backend() const override { return IsolationBackend::kProcess; }

 private:
  BackendCostModel costs_;
};

}  // namespace

dbase::Micros ModeledLoadCostUs(const BackendCostModel& costs, uint64_t binary_bytes,
                                bool cached) {
  return LoadCost(costs, binary_bytes, cached);
}

SandboxChild ForkSandboxChild(const dfunc::FunctionSpec& spec, MemoryContext& context,
                              bool park) {
  SandboxChild child;
  int channel[2] = {-1, -1};  // [0] the child's end, [1] the parent's.
  if (park && socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, channel) != 0) {
    return child;
  }
  const ChildPlan plan = SampleChildPlan();
  // The jail is built here, before fork: a cold child's once per process,
  // a parked child's, which names its go channel, once per arm.
  JailFilter parked_jail;
  const JailFilter* jail = nullptr;
  if (plan.install_jail) {
    if (park) {
      parked_jail = BuildJailFilter(channel[0]);
      jail = &parked_jail;
    } else {
      jail = &ColdJailFilter();
    }
  }
  child.pid = fork();
  if (child.pid == 0) {
    if (park) {
      close(channel[1]);
    }
    RunChild(spec, context, plan, channel[0], jail);
  }
  if (!park) {
    return child;
  }
  close(channel[0]);
  if (child.pid > 0 && ReceiveAck(channel[1])) {
    child.go_fd = channel[1];
    return child;
  }
  if (child.pid > 0) {
    KillAndReap(child.pid);
    child.pid = -1;
  }
  close(channel[1]);
  return child;
}

ExecOutcome AwaitSandboxChild(pid_t pid, const dfunc::FunctionSpec& spec, MemoryContext& context,
                              const SandboxOptions& options, SandboxTimings timings) {
  ExecOutcome outcome;
  outcome.timings = timings;
  dbase::Stopwatch watch;
  const dbase::Micros timeout = EffectiveTimeout(spec, options);
  const ChildWait wait = WaitChild(pid, dbase::MonotonicClock::Get()->NowMicros() + timeout,
                                   options.cancel_flag);
  outcome.timings.execute_us = watch.ElapsedMicros();

  watch.Restart();
  switch (wait.end) {
    case ChildEnd::kNoPidfd:
      // Treated like a failed fork: the sandbox could not be run.
      outcome.failure = dpolicy::FailureKind::kResourceExhausted;
      outcome.status = dbase::ResourceExhausted("pidfd_open failed");
      break;
    case ChildEnd::kReapFailed:
      // The child's end is unknown, so nothing it wrote can be trusted.
      outcome.failure = dpolicy::FailureKind::kCrash;
      outcome.status = dbase::Internal("waitpid failed");
      break;
    case ChildEnd::kCancelled:
      outcome.failure = dpolicy::FailureKind::kCancelKill;
      outcome.status = dbase::Cancelled(
          dbase::StrFormat("function '%s' killed on cancellation", spec.name.c_str()));
      break;
    case ChildEnd::kTimedOut:
      outcome.failure = dpolicy::FailureKind::kDeadlineKill;
      outcome.status = dbase::DeadlineExceeded(
          dbase::StrFormat("function '%s' killed after %lld us timeout", spec.name.c_str(),
                           static_cast<long long>(timeout)));
      break;
    case ChildEnd::kExited:
      // The child wrote through the MAP_SHARED mapping; the read-back can
      // still alias it when the caller pins the context.
      if (!DecodeWaitStatus(wait.status, spec.name, outcome)) {
        ReadBackOutputs(context, options, outcome);
      }
      break;
  }
  outcome.timings.output_us = watch.ElapsedMicros();
  return outcome;
}

std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend) {
  return CreateSandboxExecutor(backend, BackendCostModel::Defaults(backend));
}

std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend,
                                                       const BackendCostModel& costs) {
  switch (backend) {
    case IsolationBackend::kProcess:
      return std::make_unique<ProcessSandbox>(costs);
    case IsolationBackend::kThread:
    case IsolationBackend::kKvmSim:
    case IsolationBackend::kWasmSim:
      return std::make_unique<ThreadSandbox>(backend, costs);
  }
  return nullptr;
}

}  // namespace dandelion
