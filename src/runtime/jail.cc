#include "src/runtime/jail.h"

#include <errno.h>
#include <stddef.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>

namespace dandelion {
namespace {

#if defined(__x86_64__)
constexpr uint32_t kAuditArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
constexpr uint32_t kAuditArch = AUDIT_ARCH_AARCH64;
#else
constexpr uint32_t kAuditArch = 0;
#endif

std::atomic<bool> g_jail_enabled{true};

// Offsets into struct seccomp_data.
constexpr uint32_t kNrOffset = offsetof(seccomp_data, nr);
constexpr uint32_t kArchOffset = offsetof(seccomp_data, arch);
constexpr uint32_t kArgOffset(int i) { return offsetof(seccomp_data, args) + 8u * i; }

SandboxCapabilities ProbeCapabilities() {
  SandboxCapabilities caps;
  if (kAuditArch == 0) {
    caps.detail = "unsupported architecture";
    return caps;
  }
  // The canonical availability probe: a NULL filter pointer returns EFAULT
  // when SECCOMP_MODE_FILTER is understood, EINVAL/ENOSYS when it is not.
  // Nothing is installed either way.
  errno = 0;
  int rc = prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, nullptr, 0, 0);
  if (rc == -1 && errno == EFAULT) {
    caps.seccomp_filter = true;
    caps.detail = "seccomp-BPF filter available";
  } else {
    caps.seccomp_filter = false;
    caps.detail =
        std::string("seccomp filter unavailable (") + strerror(errno) + "), running unconfined";
  }
  return caps;
}

}  // namespace

const SandboxCapabilities& SandboxCapabilities::Get() {
  static const SandboxCapabilities caps = ProbeCapabilities();
  return caps;
}

bool SyscallJailEnabled() { return g_jail_enabled.load(std::memory_order_relaxed); }
void SetSyscallJailEnabled(bool enabled) {
  g_jail_enabled.store(enabled, std::memory_order_relaxed);
}

int InstallSyscallJail(const JailOptions& options) {
  if (kAuditArch == 0) return -ENOSYS;

  // Hand-rolled classic-BPF allowlist. Layout:
  //   [arch check] [load nr]
  //   [plain-allowed syscalls: JEQ -> ALLOW]
  //   [read: fd must be the go channel]
  //   [write: fd must be stderr]
  //   [mmap: must be MAP_ANONYMOUS (no file-backed mappings)]
  //   [mprotect: PROT_EXEC must be clear]
  //   [default: KILL_PROCESS]
  //
  // The allowlist is the *completion set* of a pure Dandelion function:
  // its outcome channel is the MAP_SHARED context (plain stores, no
  // syscall), so beyond memory management, futex (malloc/stdlib internals),
  // clock reads, scheduling yields, and exit, nothing is needed.
  sock_filter filter[64];
  int n = 0;
  auto stmt = [&](uint16_t code, uint32_t k) { filter[n++] = BPF_STMT(code, k); };
  auto jump = [&](uint16_t code, uint32_t k, uint8_t jt, uint8_t jf) {
    filter[n++] = BPF_JUMP(code, k, jt, jf);
  };
  auto allow_if_nr = [&](long nr) {
    // if (nr == k) return ALLOW;
    jump(BPF_JMP | BPF_JEQ | BPF_K, static_cast<uint32_t>(nr), 0, 1);
    stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW);
  };

  // Kill outright if the syscall ABI is not the one we compiled the
  // numbers for (e.g. a 32-bit compat syscall smuggling a different table).
  stmt(BPF_LD | BPF_W | BPF_ABS, kArchOffset);
  jump(BPF_JMP | BPF_JEQ | BPF_K, kAuditArch, 1, 0);
  stmt(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS);

  stmt(BPF_LD | BPF_W | BPF_ABS, kNrOffset);
  allow_if_nr(SYS_exit);
  allow_if_nr(SYS_exit_group);
  allow_if_nr(SYS_rt_sigreturn);
  allow_if_nr(SYS_brk);
  allow_if_nr(SYS_munmap);
  allow_if_nr(SYS_mremap);
  allow_if_nr(SYS_madvise);
  allow_if_nr(SYS_futex);
  allow_if_nr(SYS_sched_yield);
  allow_if_nr(SYS_clock_gettime);
  allow_if_nr(SYS_clock_nanosleep);
  allow_if_nr(SYS_nanosleep);
  allow_if_nr(SYS_gettimeofday);
  allow_if_nr(SYS_restart_syscall);
  allow_if_nr(SYS_membarrier);
  allow_if_nr(SYS_getrandom);  // glibc hardening reads randomness lazily.

  // Argument-gated blocks share a shape: on syscall-number mismatch skip
  // the block; on argument mismatch jump to the trailing "reload nr"
  // instruction and fall through the remaining checks to the default KILL.
  // read(fd, ...): only the go channel a pooled template parks on.
  if (options.allow_read_fd >= 0) {
    jump(BPF_JMP | BPF_JEQ | BPF_K, SYS_read, 0, 3);
    stmt(BPF_LD | BPF_W | BPF_ABS, kArgOffset(0));  // low word of args[0]
    jump(BPF_JMP | BPF_JEQ | BPF_K, static_cast<uint32_t>(options.allow_read_fd), 0, 1);
    stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW);
    stmt(BPF_LD | BPF_W | BPF_ABS, kNrOffset);  // reload nr for later checks
  }

  // write(fd, ...): stderr only, so assertion text from a dying child still
  // reaches the operator. Everything else (the context outcome) is stores.
  jump(BPF_JMP | BPF_JEQ | BPF_K, SYS_write, 0, 3);
  stmt(BPF_LD | BPF_W | BPF_ABS, kArgOffset(0));
  jump(BPF_JMP | BPF_JEQ | BPF_K, STDERR_FILENO, 0, 1);
  stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW);
  stmt(BPF_LD | BPF_W | BPF_ABS, kNrOffset);

  // mmap: anonymous memory only — a function may grow its heap, not map
  // files. flags is args[3]; MAP_ANONYMOUS fits in the low word.
  jump(BPF_JMP | BPF_JEQ | BPF_K, SYS_mmap, 0, 3);
  stmt(BPF_LD | BPF_W | BPF_ABS, kArgOffset(3));
  jump(BPF_JMP | BPF_JSET | BPF_K, MAP_ANONYMOUS, 0, 1);
  stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW);
  stmt(BPF_LD | BPF_W | BPF_ABS, kNrOffset);

  // mprotect: glibc grows a thread's malloc arena by turning reserved
  // PROT_NONE pages read-write, and a forked child allocates from the arena
  // of the engine thread that forked it. Making memory executable stays
  // forbidden. prot is args[2].
  jump(BPF_JMP | BPF_JEQ | BPF_K, SYS_mprotect, 0, 3);
  stmt(BPF_LD | BPF_W | BPF_ABS, kArgOffset(2));
  jump(BPF_JMP | BPF_JSET | BPF_K, PROT_EXEC, 1, 0);
  stmt(BPF_RET | BPF_K, SECCOMP_RET_ALLOW);
  stmt(BPF_LD | BPF_W | BPF_ABS, kNrOffset);

  stmt(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS);

  sock_fprog prog;
  prog.len = static_cast<unsigned short>(n);
  prog.filter = filter;

  // Mandatory before installing a filter without CAP_SYS_ADMIN, and the
  // right call regardless: the child must never gain privileges.
  if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0) return -errno;
  if (prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog, 0, 0) != 0) return -errno;
  return 0;
}

}  // namespace dandelion
