#include "src/runtime/sandbox.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "src/base/log.h"
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
      // Zero-copy read-back when the caller pins the context; the copying
      // path otherwise (warm sandboxes recycle the context right after).
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
    outcome.timings.output_us = watch.ElapsedMicros();
    return outcome;
  }

  IsolationBackend backend() const override { return backend_; }

 private:
  IsolationBackend backend_;
  BackendCostModel costs_;
};

// ---------------------------------------------------------------------------
// Process sandbox: real fork-based isolation.
// ---------------------------------------------------------------------------
class ProcessSandbox : public SandboxExecutor {
 public:
  explicit ProcessSandbox(BackendCostModel costs) : costs_(costs) {}

  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext& context,
                      const SandboxOptions& options) override {
    ExecOutcome outcome;
    dbase::Stopwatch watch;

    if (!context.shared()) {
      outcome.status =
          dbase::FailedPrecondition("process sandbox requires a shared memory context");
      return outcome;
    }

    if (!options.prewarmed) {
      const dbase::Micros load = LoadCost(costs_, spec.binary_bytes, options.binary_cached);
      dbase::SpinFor(load);
    }
    outcome.timings.load_us = watch.ElapsedMicros();

    watch.Restart();
    // Jail and fault decisions happen pre-fork: the child must never touch
    // lazily-initialised parent state (capability probe, injector lock).
    const bool install_jail =
        SyscallJailEnabled() && SandboxCapabilities::Get().seccomp_filter;
    FaultInjector& faults = FaultInjector::Get();
    const bool fault_crash_before =
        faults.ShouldFire(FaultPoint::kChildCrashBeforeOutcome);
    const bool fault_crash_partial =
        faults.ShouldFire(FaultPoint::kChildCrashAfterPartialWrite);
    const bool fault_forbidden = faults.ShouldFire(FaultPoint::kChildForbiddenSyscall);
    const pid_t pid = fork();
    if (pid < 0) {
      outcome.failure = dpolicy::FailureKind::kResourceExhausted;
      outcome.status = dbase::ResourceExhausted("fork failed");
      return outcome;
    }
    if (pid == 0) {
      // Child: the memory context is MAP_SHARED, so outcome writes are plain
      // stores the parent can read — and with the seccomp jail installed,
      // that is the child's *only* channel. Any syscall outside the
      // completion set kills it with SIGSYS; the parent decodes that death
      // as kJailKill.
      if (install_jail && InstallSyscallJail(JailOptions{}) != 0) {
        _exit(125);  // Jail refused to install: fail closed, never run unjailed.
      }
      if (fault_crash_before) __builtin_trap();
      if (fault_forbidden) {
        // Behaves like a confined function opening a file: under the jail
        // this call never returns; unjailed it is a harmless open+leak.
        (void)syscall(SYS_openat, AT_FDCWD, "/dev/null", O_RDONLY);
      }
      (void)RunFunctionBodyAgainstContext(spec, context);
      if (fault_crash_partial) {
        // Tear the outcome the body just wrote — plausible header, garbage
        // length — then die. The parent must discard the context and any
        // retry must re-marshal inputs instead of trusting these bytes.
        ContextHeader torn;
        torn.state = 0;
        torn.payload_len = context.capacity();
        context.WriteHeader(torn);
        __builtin_trap();
      }
      _exit(0);
    }
    outcome.timings.setup_us = watch.ElapsedMicros();

    watch.Restart();
    const dbase::Micros timeout = EffectiveTimeout(spec, options);
    const dbase::Micros deadline = dbase::MonotonicClock::Get()->NowMicros() + timeout;
    int wait_status = 0;
    bool timed_out = false;
    bool cancelled = false;
    while (true) {
      const pid_t done = waitpid(pid, &wait_status, WNOHANG);
      if (done == pid) {
        break;
      }
      if (done < 0) {
        outcome.status = dbase::Internal("waitpid failed");
        return outcome;
      }
      if (options.cancel_flag != nullptr &&
          options.cancel_flag->load(std::memory_order_relaxed)) {
        // Invocation cancelled: the process backend can hard-kill.
        kill(pid, SIGKILL);
        waitpid(pid, &wait_status, 0);
        cancelled = true;
        break;
      }
      if (dbase::MonotonicClock::Get()->NowMicros() > deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &wait_status, 0);
        timed_out = true;
        break;
      }
      std::this_thread::yield();
    }
    outcome.timings.execute_us = watch.ElapsedMicros();

    watch.Restart();
    const WaitDecode decode = DecodeWaitStatus(wait_status, spec.name);
    if (cancelled) {
      outcome.failure = dpolicy::FailureKind::kCancelKill;
      outcome.status = dbase::Cancelled(
          dbase::StrFormat("function '%s' killed on cancellation", spec.name.c_str()));
    } else if (timed_out) {
      outcome.failure = dpolicy::FailureKind::kDeadlineKill;
      outcome.status = dbase::DeadlineExceeded(
          dbase::StrFormat("function '%s' killed after %lld us timeout", spec.name.c_str(),
                           static_cast<long long>(timeout)));
    } else if (decode.kind != dpolicy::FailureKind::kNone) {
      outcome.failure = decode.kind;
      outcome.status = decode.status;
    } else {
      // The child wrote through the MAP_SHARED mapping; the parent-side
      // read-back can still alias it when the caller pins the context.
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
    outcome.timings.output_us = watch.ElapsedMicros();
    return outcome;
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

WaitDecode DecodeWaitStatus(int wait_status, const std::string& function_name) {
  WaitDecode decode;
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (sig == SIGSYS) {
      // SECCOMP_RET_KILL_PROCESS delivers SIGSYS: the function attempted a
      // syscall outside the jail's completion set. That is the function's
      // own deterministic behaviour — permission denied, never retried.
      decode.kind = dpolicy::FailureKind::kJailKill;
      decode.status = dbase::PermissionDenied(
          dbase::StrFormat("function '%s' killed by syscall jail (SIGSYS): attempted a "
                           "forbidden syscall",
                           function_name.c_str()));
    } else {
      decode.kind = dpolicy::FailureKind::kCrash;
      decode.status = dbase::Internal(dbase::StrFormat("function '%s' crashed with signal %d",
                                                       function_name.c_str(), sig));
    }
  } else if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    decode.kind = dpolicy::FailureKind::kNonzeroExit;
    decode.status = dbase::Internal(
        dbase::StrFormat("function '%s' exited abnormally", function_name.c_str()));
  }
  return decode;
}

dbase::Status RunFunctionBodyAgainstContext(const dfunc::FunctionSpec& spec,
                                            MemoryContext& context,
                                            const std::atomic<bool>* cancel_flag,
                                            dbase::Micros deadline_us,
                                            const dfunc::DataSetList* preloaded_inputs) {
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
