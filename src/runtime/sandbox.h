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

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/data.h"
#include "src/func/function.h"
#include "src/policy/retry.h"
#include "src/runtime/memory_context.h"

namespace dandelion {

class InvocationControl;

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
  // "Get/send output": reading a forked child's outcome back out of its
  // context; on the thread backend, only checking the outputs' bound.
  dbase::Micros output_us = 0;
  // The forked child's own cost, from the rusage wait4 returns on reap; 0
  // on the thread backend. CPU is its user plus system time. The peak RSS
  // is per sandbox and counts the pages the child shares copy-on-write
  // with its engine, so it is not memory the sandbox committed.
  dbase::Micros child_cpu_us = 0;
  int64_t child_maxrss_kib = 0;

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
  // The one stop source: the invocation's control. The thread backend
  // hands its stop flag to the function with the execution deadline, so
  // the cancelled() poll sees both; the process backend's wait polls its
  // stop fd beside the child and SIGKILLs the child when it turns
  // readable. A stop is classified by the reason the control recorded:
  // kDeadlineKill for the invocation deadline, kCancelKill otherwise.
  InvocationControl* control = nullptr;
  // The thread backend's inputs, read by reference (refcount bumps, no
  // payload copies). When null it reads them from the context. The process
  // backend ignores this: its child sees only the marshalled context.
  std::shared_ptr<const dfunc::DataSetList> input_sets;
  // When set, a forked child's outputs are read back zero-copy: payloads
  // alias the context region and this keepalive (the owning shared_ptr of
  // the context) pins it until the last downstream reader drops its slice.
  // Null ⇒ copying read-back.
  std::shared_ptr<const void> context_keepalive;
};

// Executes compute functions under one isolation mechanism. Thread-safe:
// engines on different cores share one executor per backend.
class SandboxExecutor {
 public:
  virtual ~SandboxExecutor() = default;

  // The process backend needs a shared context already holding the
  // marshalled inputs (MemoryContext::StoreInputSets); its child leaves the
  // outcome there, parsed into ExecOutcome::outputs. The thread backend
  // takes a null context and runs on options.input_sets, returning the
  // outputs its body emitted by reference.
  virtual ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext* context,
                              const SandboxOptions& options) = 0;
  ExecOutcome Execute(const dfunc::FunctionSpec& spec, MemoryContext& context,
                      const SandboxOptions& options) {
    return Execute(spec, &context, options);
  }

  virtual IsolationBackend backend() const = 0;
};

std::unique_ptr<SandboxExecutor> CreateSandboxExecutor(IsolationBackend backend);

}  // namespace dandelion

#endif  // SRC_RUNTIME_SANDBOX_H_
