#include "src/runtime/sandbox.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include "src/base/string_util.h"
#include "src/func/function.h"
#include "src/runtime/fault.h"
#include "src/runtime/invocation.h"
#include "src/runtime/jail.h"

namespace dandelion {

std::string_view IsolationBackendName(IsolationBackend backend) {
  switch (backend) {
    case IsolationBackend::kProcess:
      return "process";
    case IsolationBackend::kThread:
      return "cheri";
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
  return dbase::InvalidArgument("unknown isolation backend: " + std::string(name));
}

namespace {

dbase::Micros EffectiveTimeout(const dfunc::FunctionSpec& spec, const SandboxOptions& options) {
  return options.timeout_us > 0 ? options.timeout_us : spec.timeout_us;
}

// Runs the function body inside a forked child against the context holding
// its marshalled inputs, leaving the outcome in the context. The body gets
// no cancel flag and no deadline: the parent SIGKILLs the child instead.
void RunFunctionBodyAgainstContext(const dfunc::FunctionSpec& spec, MemoryContext& context) {
  auto inputs = context.LoadInputSets();
  if (!inputs.ok()) {
    (void)context.StoreOutcome(inputs.status(), {});
    return;
  }
  dfunc::FunctionCtx ctx(std::move(inputs).value());
  (void)context.StoreOutcome(spec.body(ctx), ctx.outputs());
}

// Fails an execution the sandbox ended before its body finished: a
// requested stop by the reason its control recorded, otherwise the
// sandbox's own timeout. Both backends classify a stop here.
void FailStopped(const dfunc::FunctionSpec& spec, const SandboxOptions& options,
                 ExecOutcome& outcome) {
  const InvocationControl* control = options.control;
  const bool cancelled = control != nullptr && control->stop_requested() &&
                         control->stop_reason() != dbase::StatusCode::kDeadlineExceeded;
  const char* name = spec.name.c_str();
  outcome.failure = cancelled ? dpolicy::FailureKind::kCancelKill
                              : dpolicy::FailureKind::kDeadlineKill;
  outcome.status = cancelled ? dbase::Cancelled(dbase::StrFormat("function '%s' cancelled", name))
                             : dbase::DeadlineExceeded(dbase::StrFormat(
                                   "function '%s' stopped at its deadline", name));
}

// Reads the outcome a forked child left in its context: zero-copy when the
// caller pins the context, copying otherwise.
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
// Thread-based sandbox (CHERI stand-in). Executes inline on the engine's
// core — run-to-completion, no context switch (§5) — with a deadline the
// body polls providing cooperative preemption. There is no sandbox to
// create: on CHERI a sandbox is a capability switch within the address
// space, so load_us and setup_us stay 0. Inputs and outputs are refcounted
// sets handed over by reference; nothing is marshalled or copied.
// ---------------------------------------------------------------------------
class ThreadSandbox : public SandboxExecutor {
 public:
  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext* context,
                      const SandboxOptions& options) override {
    ExecOutcome outcome;
    dfunc::DataSetList inputs;
    if (options.input_sets != nullptr) {
      // Copying the list is refcount bumps, not byte copies.
      inputs = *options.input_sets;
    } else if (context != nullptr) {
      auto loaded = context->LoadInputSets();
      if (!loaded.ok()) {
        outcome.status = loaded.status();
        return outcome;
      }
      inputs = std::move(loaded).value();
    }
    // Execute inline with a cooperative deadline: the body's cancelled()
    // poll turns true once the deadline passes or the invocation is
    // stopped. A body that returns stopped or at or after the deadline
    // was ended by the sandbox.
    dbase::Stopwatch watch;
    const dbase::Micros deadline =
        dbase::MonotonicClock::Get()->NowMicros() + EffectiveTimeout(spec, options);
    dfunc::FunctionCtx ctx(std::move(inputs));
    ctx.set_cancel_flag(options.control != nullptr ? options.control->stop_flag() : nullptr);
    ctx.set_deadline(deadline);
    const dbase::Status status = spec.body(ctx);
    const bool stopped = (options.control != nullptr && options.control->stop_requested()) ||
                         dbase::MonotonicClock::Get()->NowMicros() >= deadline;
    outcome.timings.execute_us = watch.ElapsedMicros();

    watch.Restart();
    if (stopped) {
      FailStopped(spec, options, outcome);
    } else if (!status.ok()) {
      outcome.status = status;
    } else if (dfunc::MarshalledSize(ctx.outputs()) >
               MemoryContext::PayloadCapacity(spec.context_bytes)) {
      // The bound a forked child's context enforces, so an under-declared
      // memory requirement fails the same on both backends.
      outcome.status = dbase::ResourceExhausted("outputs exceed context capacity");
    } else {
      outcome.outputs = std::move(ctx.outputs());
    }
    outcome.timings.output_us = watch.ElapsedMicros();
    return outcome;
  }

  IsolationBackend backend() const override { return IsolationBackend::kThread; }
};

// ---------------------------------------------------------------------------
// Process sandbox children: fork at dispatch, jail, wait on a pidfd, read
// back.
// ---------------------------------------------------------------------------

// Jail and fault-point decisions for one child, taken before fork: the
// child is the unit of injection.
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

// The child body. The memory context is MAP_SHARED, so outcome writes are
// plain stores the parent can read — and with the seccomp jail installed,
// that is the child's *only* channel. Any syscall outside the completion set
// kills it with SIGSYS, which the parent decodes as kJailKill.
[[noreturn]] void RunChild(const dfunc::FunctionSpec& spec, MemoryContext& context,
                           const ChildPlan& plan, const JailFilter* jail) {
  // Confinement comes first: nothing the child does after this runs
  // unjailed.
  if (jail != nullptr && InstallSyscallJail(*jail) != 0) {
    _exit(125);  // Jail refused to install: fail closed, never run unjailed.
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
  // The raw syscall, not _exit(): a sanitizer hooks every call to a
  // noreturn function, and ASan's hook queries sigaltstack, which the jail
  // kills.
  syscall(SYS_exit_group, 0);
  __builtin_unreachable();
}

enum class ChildEnd { kExited, kStopped, kNoFd, kWaitFailed };

struct ChildWait {
  ChildEnd end = ChildEnd::kExited;
  int status = 0;  // The wait4 status once reaped.
  rusage usage{};  // The child's own cost, kept by the reap.
};

// The one wait on a sandbox child: a single ppoll on its pidfd and the
// invocation's stop fd, with the time left to the deadline as the timeout,
// so the worker sleeps until the child exits, the invocation stops or the
// deadline passes. Any end but the child's own exit SIGKILLs it; the child
// is always reaped, with wait4 so its rusage is kept.
ChildWait WaitChild(pid_t pid, dbase::Micros deadline, InvocationControl* control) {
  ChildWait wait;
  // poll ignores a negative fd, so a wait with no control has no stop source.
  pollfd fds[2] = {{static_cast<int>(syscall(SYS_pidfd_open, pid, 0)), POLLIN, 0},
                   {control != nullptr ? control->StopFd() : -1, POLLIN, 0}};
  if (fds[0].fd < 0 || (control != nullptr && fds[1].fd < 0)) {
    wait.end = ChildEnd::kNoFd;
  } else {
    int ready;
    do {
      const dbase::Micros left =
          std::max<dbase::Micros>(deadline - dbase::MonotonicClock::Get()->NowMicros(), 0);
      const timespec timeout{left / dbase::kMicrosPerSecond, left % dbase::kMicrosPerSecond * 1000};
      ready = ppoll(fds, 2, &timeout, nullptr);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      wait.end = ChildEnd::kWaitFailed;
    } else if (ready == 0 || fds[1].revents != 0) {
      wait.end = ChildEnd::kStopped;  // The deadline passed or a stop came.
    }
  }
  if (fds[0].fd >= 0) {
    close(fds[0].fd);
  }
  if (wait.end != ChildEnd::kExited) {
    kill(pid, SIGKILL);
  }
  pid_t reaped;
  do {
    reaped = wait4(pid, &wait.status, 0, &wait.usage);
  } while (reaped < 0 && errno == EINTR);
  if (reaped != pid && wait.end == ChildEnd::kExited) {
    wait.end = ChildEnd::kWaitFailed;
  }
  return wait;
}

// Classifies a death the parent did not cause (stops are resolved before
// this: the parent knows why it killed). Returns false for a clean exit,
// leaving `outcome` untouched.
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
  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext* context,
                      const SandboxOptions& options) override {
    ExecOutcome outcome;
    if (context == nullptr || !context->shared()) {
      outcome.status =
          dbase::FailedPrecondition("process sandbox requires a shared memory context");
      return outcome;
    }
    dbase::Stopwatch watch;
    const pid_t pid = ForkChild(spec, *context);
    if (pid < 0) {
      outcome.failure = dpolicy::FailureKind::kResourceExhausted;
      outcome.status = dbase::ResourceExhausted("fork failed");
      return outcome;
    }
    outcome.timings.setup_us = watch.ElapsedMicros();
    AwaitChild(pid, spec, *context, options, outcome);
    return outcome;
  }

  IsolationBackend backend() const override { return IsolationBackend::kProcess; }

 private:
  // Samples the jail and fault-point decisions before fork — the child must
  // never touch lazily-initialised parent state — then forks a child that
  // runs `spec` over the MAP_SHARED `context`. Returns the child's pid, or
  // < 0 when fork failed.
  static pid_t ForkChild(const dfunc::FunctionSpec& spec, MemoryContext& context) {
    const ChildPlan plan = SampleChildPlan();
    // The jail program is built here, in the parent, once per process.
    const JailFilter* jail = plan.install_jail ? &ColdJailFilter() : nullptr;
    const pid_t pid = fork();
    if (pid == 0) {
      RunChild(spec, context, plan, jail);
    }
    return pid;
  }

  // Waits for the child and reaps it: a stop or the deadline SIGKILLs it,
  // otherwise its exit wakes the caller at once. The outcome is the stop,
  // the crash or jail kill, or the read-back of what the child wrote.
  static void AwaitChild(pid_t pid, const dfunc::FunctionSpec& spec, MemoryContext& context,
                         const SandboxOptions& options, ExecOutcome& outcome) {
    dbase::Stopwatch watch;
    const ChildWait wait = WaitChild(
        pid, dbase::MonotonicClock::Get()->NowMicros() + EffectiveTimeout(spec, options),
        options.control);
    outcome.timings.execute_us = watch.ElapsedMicros();
    const rusage& usage = wait.usage;
    outcome.timings.child_cpu_us =
        (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * dbase::kMicrosPerSecond +
        usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
    outcome.timings.child_maxrss_kib = usage.ru_maxrss;

    watch.Restart();
    switch (wait.end) {
      case ChildEnd::kNoFd:
        // Treated like a failed fork: the sandbox could not be run.
        outcome.failure = dpolicy::FailureKind::kResourceExhausted;
        outcome.status = dbase::ResourceExhausted("pidfd_open or eventfd failed");
        break;
      case ChildEnd::kWaitFailed:
        // The child's end is unknown, so nothing it wrote can be trusted.
        outcome.failure = dpolicy::FailureKind::kCrash;
        outcome.status = dbase::Internal("waiting on the sandbox child failed");
        break;
      case ChildEnd::kStopped:
        FailStopped(spec, options, outcome);
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
  }
};

}  // namespace

std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend) {
  switch (backend) {
    case IsolationBackend::kProcess:
      return std::make_unique<ProcessSandbox>();
    case IsolationBackend::kThread:
      return std::make_unique<ThreadSandbox>();
  }
  return nullptr;
}

}  // namespace dandelion
