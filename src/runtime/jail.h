// seccomp-BPF syscall jail for kProcess sandbox children (the ROADMAP "Real
// syscall jail" item). The paper ptrace-jails every process sandbox so any
// syscall kills it; seccomp-BPF gets the same containment without a tracer
// context switch per syscall. The filter is installed in the child after
// fork (cold path) or after the fork-safety ack (pooled template), allows only the
// minimal completion set a pure Dandelion function needs — memory
// management, futex, clock reads, stderr writes, the go-channel read, exit —
// and kills the process (SIGSYS via SECCOMP_RET_KILL_PROCESS) on anything
// else. The parent decodes that death as FailureKind::kJailKill.
#ifndef SRC_RUNTIME_JAIL_H_
#define SRC_RUNTIME_JAIL_H_

#include <string>

namespace dandelion {

// Probed once at first use: whether this kernel accepts
// SECCOMP_SET_MODE_FILTER. When false, kProcess children run unconfined
// (the pre-jail behaviour) and tests/statz report the fallback explicitly.
struct SandboxCapabilities {
  bool seccomp_filter = false;
  std::string detail;  // Human-readable probe outcome for /statz and logs.

  static const SandboxCapabilities& Get();
};

// Process-wide switch (default on). Benches toggle it to measure what
// confinement costs; it only gates *installation* — capability probing is
// unaffected.
bool SyscallJailEnabled();
void SetSyscallJailEnabled(bool enabled);

struct JailOptions {
  // Pooled template children park on a go-channel read; the filter permits
  // read(2) only on this fd. -1 forbids read entirely (cold children have
  // no channel to wait on).
  int allow_read_fd = -1;
};

// Installs the filter in the calling (child) process. Async-signal-safe:
// no allocation, no locks — callable between fork and exec^W the function
// body. Returns 0 on success, -errno on failure. Callers must have decided
// *before* forking whether to install (capability + enabled flag), so the
// child never touches lazily-initialised state.
int InstallSyscallJail(const JailOptions& options);

}  // namespace dandelion

#endif  // SRC_RUNTIME_JAIL_H_
