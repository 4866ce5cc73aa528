// seccomp-BPF syscall jail for kProcess sandbox children (the ROADMAP "Real
// syscall jail" item). The paper ptrace-jails every process sandbox so any
// syscall kills it; seccomp-BPF gets the same containment without a tracer
// context switch per syscall. The filter is installed in the child right
// after fork, allows only the minimal completion set a pure Dandelion
// function needs — memory management, futex, clock reads, stderr writes,
// exit — and kills the process (SIGSYS via SECCOMP_RET_KILL_PROCESS) on anything
// else. The parent decodes that death as FailureKind::kJailKill.
#ifndef SRC_RUNTIME_JAIL_H_
#define SRC_RUNTIME_JAIL_H_

#include <linux/filter.h>

#include <cstddef>
#include <string>

namespace dandelion {

// Probed once at first use: whether this kernel accepts
// SECCOMP_SET_MODE_FILTER. When false, a process sandbox that requires the
// jail forks nothing and fails each instance instead (fail closed).
struct SandboxCapabilities {
  bool seccomp_filter = false;
  std::string detail;  // Human-readable probe outcome for /statz and logs.

  static const SandboxCapabilities& Get();
};

// Whether a process sandbox jails its children, fixed when the executor is
// built. Every Platform requires the jail; kOff exists only for measuring
// what confinement costs and for tests whose children make syscalls the
// jail forbids on purpose.
enum class JailMode { kRequired, kOff };

// The jail's classic-BPF program. It is built in the parent, before fork,
// so a child only installs it.
struct JailFilter {
  static constexpr size_t kMaxInsns = 64;
  sock_filter insns[kMaxInsns] = {};
  unsigned short len = 0;  // 0 when the build overflowed: installing fails.
};

// After the arch check, a balanced binary search over the sorted allowlist
// whose leaves are exact syscall-number matches; the write/mmap/mprotect
// leaves go on to their argument gate. Any number resolves in a few jumps,
// which keeps the kernel's per-number allow-cache walk at attach short,
// and a number not on the list always reaches KILL. read(2) is not on it:
// a child's inputs are already in its context, so it reads no fd at all.
JailFilter BuildJailFilter();

// BuildJailFilter's program, built once per process for every sandbox
// child. The first call must come from the parent.
const JailFilter& ColdJailFilter();

// Installs `filter` in the calling (child) process. Async-signal-safe: no
// allocation, no locks — callable between fork and the function body.
// Returns 0 on success, -errno on failure. Callers must have decided
// *before* forking whether to install (the executor's jail mode) and built
// the filter there, so the child never touches lazily-initialised state.
int InstallSyscallJail(const JailFilter& filter);

}  // namespace dandelion

#endif  // SRC_RUNTIME_JAIL_H_
