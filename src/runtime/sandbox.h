// Isolation backends for compute engines (§6.2). Dandelion's design is not
// tied to one mechanism; the paper implements four (KVM, processes, CHERI,
// rWasm). The runtime runs two backends; KVM and rWasm exist only as dsim
// model rows (src/sim/calibration.h):
//
//   kProcess  — real fork()-based isolation: the function runs in a child
//               process over a MAP_SHARED memory context; the parent
//               enforces the deadline with SIGKILL and the child is confined
//               by a seccomp-BPF syscall jail (src/runtime/jail.h): any
//               forbidden syscall kills it, surfacing as kJailKill. See the
//               threat-model section in DESIGN.md.
//   kThread   — CHERI stand-in: runs in-process on a scratch thread within a
//               single address space, zero spawn cost on the critical path.
//               CHERI's hardware bounds checks are not enforced.
//
// Every timing either backend reports is measured; none is a modelled cost.
#ifndef SRC_RUNTIME_SANDBOX_H_
#define SRC_RUNTIME_SANDBOX_H_

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/data.h"
#include "src/func/registry.h"
#include "src/policy/retry.h"
#include "src/runtime/memory_context.h"

namespace dandelion {

enum class IsolationBackend { kProcess, kThread };

std::string_view IsolationBackendName(IsolationBackend backend);
dbase::Result<IsolationBackend> IsolationBackendFromName(std::string_view name);

// Per-execution latency breakdown, mirroring Table 1's rows.
struct SandboxTimings {
  // "Load from disk". Always 0: function bodies are linked into the binary,
  // so nothing is loaded. Kept because bench/e2e reads it.
  dbase::Micros load_us = 0;
  dbase::Micros setup_us = 0;    // Sandbox creation (fork / none).
  dbase::Micros execute_us = 0;  // User code.
  dbase::Micros output_us = 0;   // "Get/send output": outcome readback.
  // The instance ran on a pre-warmed sandbox: its setup was paid at
  // pool-fill time, off the critical path, and setup_us reports ~0 here.
  bool pool_hit = false;

  dbase::Micros Total() const { return load_us + setup_us + execute_us + output_us; }
};

struct ExecOutcome {
  dbase::Status status;
  dfunc::DataSetList outputs;
  SandboxTimings timings;
  // Sandbox-level failure classification (kNone for success and for
  // functional errors the body returned deliberately). The dispatcher's
  // RetryPolicy keys off this, never off the Status alone.
  dpolicy::FailureKind failure = dpolicy::FailureKind::kNone;
};

struct SandboxOptions {
  // Overrides the FunctionSpec timeout when > 0.
  dbase::Micros timeout_us = 0;
  // External kill switch (the invocation's cancel flag). The thread
  // backend hands it to the function with the execution deadline, so the
  // cancelled() poll sees both; the process backend SIGKILLs the child
  // when it flips. A set flag yields a kCancelled outcome.
  const std::atomic<bool>* cancel_flag = nullptr;
  // By-reference input handoff for in-process backends: when set, the
  // function body reads these sets directly (refcount bumps for aliased
  // payloads) and StoreInputSets is skipped entirely. Address-space-crossing
  // backends (process) ignore this — their children can only see the
  // marshalled context mapping.
  std::shared_ptr<const dfunc::DataSetList> input_sets;
  // When set, in-process backends read outputs back zero-copy: payloads
  // alias the context region and this keepalive (the owning shared_ptr of
  // the context) pins it until the last downstream reader drops its slice.
  // Null ⇒ copying read-back (warm sandboxes whose context is recycled
  // immediately after Execute).
  std::shared_ptr<const void> context_keepalive;
};

// Executes compute functions under one isolation mechanism. Thread-safe:
// engines on different cores share one executor per backend.
class SandboxExecutor {
 public:
  virtual ~SandboxExecutor() = default;

  // The context must already contain the marshalled inputs
  // (MemoryContext::StoreInputSets). On return it contains the outcome and
  // the parsed outputs are in ExecOutcome::outputs.
  virtual ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext& context,
                              const SandboxOptions& options) = 0;

  virtual IsolationBackend backend() const = 0;
};

std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend);

// The kProcess child lifecycle, one path for the cold backend (a child per
// execution) and the pool's template children (a child forked at fill time
// and parked until dispatch).
struct SandboxChild {
  pid_t pid = -1;  // < 0: no child is running (fork, channel or ack failed).
  int go_fd = -1;  // Parked children only: the parent's end of the go channel.
};

// Samples the jail and fault-point decisions before fork — the child must
// never touch lazily-initialised parent state — then forks a child that
// runs `spec` over the MAP_SHARED `context`. With `park`, the child first
// touches the heap and acks over an AF_UNIX socketpair (the fork-safety
// probe, DESIGN.md), is jailed with read(2) allowed on its end only, and
// blocks until one go byte arrives on it; EOF exits without running the
// body. A parked child that misses the ack is killed and reaped.
SandboxChild ForkSandboxChild(const dfunc::FunctionSpec& spec, MemoryContext& context,
                              bool park);

// Waits for a running child and reaps it: the cancel flag or the deadline
// SIGKILLs it, otherwise its exit wakes the caller at once. The outcome is
// the cancel, the deadline, the crash or jail kill, or the read-back of what
// the child wrote. `timings` carries the setup phase measured so far.
ExecOutcome AwaitSandboxChild(pid_t pid, const dfunc::FunctionSpec& spec, MemoryContext& context,
                              const SandboxOptions& options, SandboxTimings timings);

}  // namespace dandelion

#endif  // SRC_RUNTIME_SANDBOX_H_
