#include "src/runtime/jail.h"

#include <errno.h>
#include <stddef.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>

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
    caps.detail = std::string("seccomp filter unavailable (") + strerror(errno) + ")";
  }
  return caps;
}

// One allowlist entry. With `arg` set, a matching number is allowed only
// when the low word of args[arg] passes `op` against `k` (or fails it, when
// !allow_on_match); otherwise the number alone allows.
struct JailRule {
  uint32_t nr = 0;
  int arg = -1;
  uint16_t op = BPF_JEQ;
  uint32_t k = 0;
  bool allow_on_match = true;
};

// Appends instructions to a JailFilter. cBPF jumps only go forward, so a
// branch to the shared ALLOW or KILL return at the end carries a
// placeholder that Finish() turns into the offset once those are placed
// (no filter of kMaxInsns jumps 254 or more).
class FilterEmitter {
 public:
  static constexpr uint8_t kNext = 0;
  static constexpr uint8_t kAllow = 0xFF;
  static constexpr uint8_t kKill = 0xFE;

  explicit FilterEmitter(JailFilter* filter) : filter_(filter) { filter_->len = 0; }

  void Load(uint32_t offset) { Put(BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offset)); }

  // Returns the jump's index, for LandTrueHere.
  size_t Jump(uint16_t op, uint32_t k, uint8_t on_true, uint8_t on_false) {
    return Put(BPF_JUMP(BPF_JMP | op | BPF_K, k, on_true, on_false));
  }

  // Aims jump `at`'s true branch at the next instruction emitted.
  void LandTrueHere(size_t at) {
    filter_->insns[at].jt = static_cast<uint8_t>(filter_->len - at - 1);
  }

  // Places the shared returns and resolves the placeholders; an overflowed
  // build leaves len 0, which the kernel refuses.
  void Finish() {
    const size_t allow = Put(BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW));
    const size_t kill = Put(BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS));
    if (overflow_) {
      filter_->len = 0;
      return;
    }
    for (size_t i = 0; i < filter_->len; ++i) {
      sock_filter& insn = filter_->insns[i];
      if (BPF_CLASS(insn.code) != BPF_JMP) {
        continue;
      }
      for (uint8_t* branch : {&insn.jt, &insn.jf}) {
        if (*branch == kAllow || *branch == kKill) {
          *branch = static_cast<uint8_t>((*branch == kAllow ? allow : kill) - i - 1);
        }
      }
    }
  }

 private:
  size_t Put(sock_filter insn) {
    if (filter_->len >= JailFilter::kMaxInsns) {
      overflow_ = true;
      return 0;
    }
    filter_->insns[filter_->len] = insn;
    return filter_->len++;
  }

  JailFilter* filter_;
  bool overflow_ = false;
};

// A leaf: the number's exact match, then its argument gate if it has one.
void EmitRule(FilterEmitter& emit, const JailRule& rule) {
  if (rule.arg < 0) {
    emit.Jump(BPF_JEQ, rule.nr, FilterEmitter::kAllow, FilterEmitter::kKill);
    return;
  }
  emit.Jump(BPF_JEQ, rule.nr, FilterEmitter::kNext, FilterEmitter::kKill);
  emit.Load(kArgOffset(rule.arg));
  emit.Jump(rule.op, rule.k, rule.allow_on_match ? FilterEmitter::kAllow : FilterEmitter::kKill,
            rule.allow_on_match ? FilterEmitter::kKill : FilterEmitter::kAllow);
}

// Binary search over rules sorted by number: nr >= the middle rule's number
// jumps to the upper half, anything else falls into the lower half.
void EmitTree(FilterEmitter& emit, const JailRule* rules, size_t count) {
  if (count == 1) {
    EmitRule(emit, rules[0]);
    return;
  }
  const size_t half = count / 2;
  const size_t split =
      emit.Jump(BPF_JGE, rules[half].nr, FilterEmitter::kNext, FilterEmitter::kNext);
  EmitTree(emit, rules, half);
  emit.LandTrueHere(split);
  EmitTree(emit, rules + half, count - half);
}

}  // namespace

const SandboxCapabilities& SandboxCapabilities::Get() {
  static const SandboxCapabilities caps = ProbeCapabilities();
  return caps;
}

JailFilter BuildJailFilter() {
  // The allowlist is the *completion set* of a pure Dandelion function:
  // its outcome channel is the MAP_SHARED context (plain stores, no
  // syscall), so beyond memory management, futex (malloc/stdlib internals),
  // clock reads, scheduling yields, and exit, nothing is needed.
  JailRule rules[24];
  size_t count = 0;
  for (long nr : {SYS_exit, SYS_exit_group, SYS_rt_sigreturn, SYS_brk, SYS_munmap, SYS_mremap,
                  SYS_madvise, SYS_futex, SYS_sched_yield, SYS_clock_gettime, SYS_clock_nanosleep,
                  SYS_nanosleep, SYS_gettimeofday, SYS_restart_syscall, SYS_membarrier,
                  SYS_getrandom}) {  // getrandom: glibc hardening reads randomness lazily.
    rules[count++] = {.nr = static_cast<uint32_t>(nr)};
  }
  // write(fd, ...): stderr only, so assertion text from a dying child still
  // reaches the operator. Everything else (the context outcome) is stores.
  rules[count++] = {.nr = SYS_write, .arg = 0, .op = BPF_JEQ, .k = STDERR_FILENO};
  // mmap: anonymous memory only — a function may grow its heap, not map
  // files. flags is args[3]; MAP_ANONYMOUS fits in the low word.
  rules[count++] = {.nr = SYS_mmap, .arg = 3, .op = BPF_JSET, .k = MAP_ANONYMOUS};
  // mprotect: glibc grows a thread's malloc arena by turning reserved
  // PROT_NONE pages read-write, and a forked child allocates from the arena
  // of the engine thread that forked it. Making memory executable stays
  // forbidden. prot is args[2].
  rules[count++] = {.nr = SYS_mprotect, .arg = 2, .op = BPF_JSET, .k = PROT_EXEC,
                    .allow_on_match = false};
  std::sort(rules, rules + count,
            [](const JailRule& a, const JailRule& b) { return a.nr < b.nr; });

  JailFilter filter;
  FilterEmitter emit(&filter);
  // Kill outright if the syscall ABI is not the one we compiled the
  // numbers for (e.g. a 32-bit compat syscall smuggling a different table).
  emit.Load(kArchOffset);
  emit.Jump(BPF_JEQ, kAuditArch, FilterEmitter::kNext, FilterEmitter::kKill);
  emit.Load(kNrOffset);
  EmitTree(emit, rules, count);
  emit.Finish();
  return filter;
}

const JailFilter& ColdJailFilter() {
  static const JailFilter filter = BuildJailFilter();
  return filter;
}

int InstallSyscallJail(const JailFilter& filter) {
  if (kAuditArch == 0) return -ENOSYS;
  sock_fprog prog;
  prog.len = filter.len;
  prog.filter = const_cast<sock_filter*>(filter.insns);

  // Mandatory before installing a filter without CAP_SYS_ADMIN, and the
  // right call regardless: the child must never gain privileges.
  if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0) return -errno;
  if (prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog, 0, 0) != 0) return -errno;
  return 0;
}

}  // namespace dandelion
