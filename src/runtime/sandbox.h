// Isolation backends for compute engines (§6.2). Dandelion's design is not
// tied to one mechanism; the paper implements four (KVM, processes, CHERI,
// rWasm) and we mirror that set:
//
//   kProcess  — real fork()-based isolation: the function runs in a child
//               process over a MAP_SHARED memory context; the parent
//               enforces the deadline with SIGKILL and the child is confined
//               by a seccomp-BPF syscall jail (src/runtime/jail.h): any
//               forbidden syscall kills it, surfacing as kJailKill. See the
//               threat-model section in DESIGN.md.
//   kThread   — CHERI stand-in: runs in-process on a scratch thread within a
//               single address space, zero spawn cost on the critical path.
//               CHERI's hardware bounds checks are modelled, not enforced.
//   kKvmSim   — KVM stand-in: thread execution plus the VM-setup cost
//               calibrated from Table 1 (/dev/kvm is unavailable here).
//   kWasmSim  — rWasm stand-in: thread execution plus dynamic-load cost and
//               a compute slowdown factor (transpiled code runs slower,
//               §7.3).
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

enum class IsolationBackend { kProcess, kThread, kKvmSim, kWasmSim };

std::string_view IsolationBackendName(IsolationBackend backend);
dbase::Result<IsolationBackend> IsolationBackendFromName(std::string_view name);

// Per-execution latency breakdown, mirroring Table 1's rows.
struct SandboxTimings {
  dbase::Micros load_us = 0;     // "Load from disk": binary load / transpile.
  dbase::Micros setup_us = 0;    // Sandbox creation (fork / VM enter / none).
  dbase::Micros execute_us = 0;  // User code.
  dbase::Micros output_us = 0;   // "Get/send output": outcome readback.
  // The instance ran on a pre-warmed sandbox: load_us and setup_us were
  // paid at pool-fill time, off the critical path, and report ~0 here so
  // fig02/tab01 breakdowns stay honest about what the request actually
  // waited for.
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
  // Whether the function binary is in the node's in-memory cache (§7.4
  // compares cached vs. uncached chains). Cold binary ⇒ disk-load model.
  bool binary_cached = true;
  // Overrides the FunctionSpec timeout when > 0.
  dbase::Micros timeout_us = 0;
  // External kill switch (the invocation's cancel flag). Thread-flavoured
  // backends hand it to the function with the execution deadline, so the
  // cancelled() poll sees both; the process backend SIGKILLs the child
  // when it flips. A set flag yields a kCancelled outcome.
  const std::atomic<bool>* cancel_flag = nullptr;
  // The sandbox was pre-warmed by a SandboxPool: the binary is already
  // loaded and the sandbox already instantiated, so the executor skips the
  // load/setup cost models and reports the execution as a pool hit.
  bool prewarmed = false;
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

// Injected cost model per backend. Values are derived from Table 1 /
// §7.2 ("with the default Linux 5.15 kernel the totals of the rWasm,
// process and KVM backends are 109, 539 and 218 us"); the process backend
// injects nothing — its fork()+wait cost is real.
struct BackendCostModel {
  dbase::Micros setup_us = 0;          // Fixed sandbox-creation surcharge.
  double load_disk_us_per_mb = 200.0;  // Binary load from disk.
  double load_disk_base_us = 30.0;
  double load_cached_us_per_mb = 20.0;  // Binary copy from in-memory cache.
  double load_cached_base_us = 3.0;
  double compute_slowdown = 1.0;  // >1 emulates slower generated code.

  static BackendCostModel Defaults(IsolationBackend backend);
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
std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend,
                                                       const BackendCostModel& costs);

// The modelled binary-load cost (Table 1 "load from disk" row). Exposed so
// the sandbox pool can pay it at pre-warm time instead of on the request's
// critical path.
dbase::Micros ModeledLoadCostUs(const BackendCostModel& costs, uint64_t binary_bytes,
                                bool cached);

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
// the child wrote. `timings` carries the load and setup phases measured so
// far.
ExecOutcome AwaitSandboxChild(pid_t pid, const dfunc::FunctionSpec& spec, MemoryContext& context,
                              const SandboxOptions& options, SandboxTimings timings);

}  // namespace dandelion

#endif  // SRC_RUNTIME_SANDBOX_H_
