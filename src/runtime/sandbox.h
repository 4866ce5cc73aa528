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

// Classification of a waitpid() status from a sandbox child, shared by the
// cold process backend and the pool's template children so signal decoding
// lives in exactly one place. Deadline/cancel SIGKILLs are resolved by the
// caller *before* decoding (the parent knows why it killed); DecodeWaitStatus
// only sees deaths the parent did not cause.
struct WaitDecode {
  dpolicy::FailureKind kind = dpolicy::FailureKind::kNone;
  dbase::Status status;
};

WaitDecode DecodeWaitStatus(int wait_status, const std::string& function_name);

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

// Runs the function body in-process against a context already holding
// marshalled inputs, leaving the outcome in the context. Shared by the
// thread-flavoured backends, the forked child of the process backend, and
// the sandbox pool's pre-forked template children. `cancel_flag` (may be
// null) is the invocation-wide kill switch and `deadline_us` the execution's
// absolute deadline on dbase::MonotonicClock; the body's cancelled() poll
// sees both. Forked children pass neither: the parent SIGKILLs them.
// `preloaded_inputs`, when non-null, bypasses LoadInputSets: the body
// consumes these sets directly (aliased payloads stay refcount bumps) — the
// in-process zero-copy input path.
dbase::Status RunFunctionBodyAgainstContext(
    const dfunc::FunctionSpec& spec, MemoryContext& context,
    const std::atomic<bool>* cancel_flag = nullptr,
    dbase::Micros deadline_us = dfunc::FunctionCtx::kNoDeadline,
    const dfunc::DataSetList* preloaded_inputs = nullptr);

}  // namespace dandelion

#endif  // SRC_RUNTIME_SANDBOX_H_
