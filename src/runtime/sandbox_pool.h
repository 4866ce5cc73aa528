// Pre-warmed sandbox pools (ROADMAP "Cold-start elimination"): per-function
// shelves of ready-to-run sandboxes so a dispatching instance skips the
// cold path — fork + binary load for the process backend, modelled
// load/setup for the thread-flavoured ones — and pays only execution.
//
// Lifecycle of one warm sandbox:
//
//     Tick (policy fill)                 Dispatch                Completion
//   ┌───────────────────┐   Acquire   ┌───────────┐   Release  ┌──────────┐
//   │ create context,   │ ──────────► │ inputs    │ ─────────► │ scrub    │
//   │ load binary,      │   (shelf)   │ marshal   │  (engine)  │ extent,  │
//   │ fork template /   │             │ straight  │            │ re-arm,  │
//   │ instantiate state │             │ into the  │            │ re-shelf │
//   └───────────────────┘             │ warm ctx  │            └────┬─────┘
//             ▲                       └───────────┘                 │
//             └──────────── retire (over target / clamp / drain) ◄──┘
//
// Backends:
//   kProcess  — fork-from-template: a child is forked at fill time over a
//               MAP_SHARED context and parks on its go channel (an AF_UNIX
//               socketpair); COW shares the parent image until dispatch
//               writes inputs and releases it.
//               The template child is single-use (it _exit()s after the
//               body); Release re-forks during recycle, off the next
//               request's critical path.
//   kThread / kKvmSim / kWasmSim — instantiated executor state: the binary
//               load and sandbox setup cost models are paid at fill time,
//               and execution runs with SandboxOptions::prewarmed so the
//               executor skips them.
//
// Scrub contract (the ContextPool touched-extent idiom, applied in place):
// on Release the context's written extent is zeroed (small) or
// MADV_DONTNEED'd (large) before the sandbox returns to the shelf, so a
// reused sandbox is indistinguishable from a fresh one — no state crosses
// instances. For the process backend the parent widens the extent to cover
// the child's outcome writes (header + declared payload; the full capacity
// after an unclean exit, where the header cannot be trusted).
//
// Depth is policy-driven: each Tick feeds per-function cumulative arrivals
// to a dpolicy::PrewarmPolicy instance (the same pure decision object dsim
// executes) and fills or retires toward the decided target, clamped by the
// per-function and global caps.
#ifndef SRC_RUNTIME_SANDBOX_POOL_H_
#define SRC_RUNTIME_SANDBOX_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/func/registry.h"
#include "src/policy/prewarm.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"

namespace dandelion {

struct SandboxPoolStats {
  uint64_t hits = 0;           // Acquire found a warm sandbox.
  uint64_t misses = 0;         // Acquire fell back to the cold path.
  uint64_t bypassed = 0;       // Batch acquires refused by the interactive reserve.
  uint64_t prewarm_fills = 0;  // Warm sandboxes created by policy ticks.
  uint64_t recycled = 0;       // Released sandboxes scrubbed and re-shelved.
  uint64_t retired = 0;        // Destroyed: over target, clamped, unhealthy, drain.
  uint64_t arrivals = 0;       // Dispatch-side arrivals (the EWMA feed).
  // Template child found dead at dispatch (go-channel send failed); the
  // engine fell back to a cold fork transparently instead of failing the
  // invocation.
  uint64_t pool_child_lost = 0;
  int shelved = 0;             // Ready warm sandboxes, all functions.
  int leased = 0;              // Acquired and not yet released.
  int functions = 0;           // Function pools tracked.
  int max_total = 0;           // Global shelf cap (for occupancy signals).
};

// One pre-initialized sandbox. Owns its memory context for its whole pooled
// lifetime; the dispatcher marshals inputs straight into that context, the
// engine executes via Execute(), and the pool scrubs + re-arms on Release.
class WarmSandbox {
 public:
  WarmSandbox(dfunc::FunctionSpec spec, std::shared_ptr<MemoryContext> context)
      : spec_(std::move(spec)), context_(std::move(context)) {}
  virtual ~WarmSandbox() = default;

  WarmSandbox(const WarmSandbox&) = delete;
  WarmSandbox& operator=(const WarmSandbox&) = delete;

  const dfunc::FunctionSpec& spec() const { return spec_; }
  const std::shared_ptr<MemoryContext>& context() const { return context_; }

  // Runs the function against the inputs already marshalled into
  // context(). Timings report load_us/setup_us ≈ 0 with pool_hit set —
  // those costs were paid at fill time.
  virtual ExecOutcome Execute(const SandboxOptions& options) = 0;

  // Scrubs the context and re-arms for the next lease. Returns false when
  // the sandbox cannot be reused (e.g. the template child was killed and
  // the re-fork failed) — the caller destroys it instead of shelving.
  virtual bool Recycle() = 0;

  // Fault-injection seam (FaultPoint::kPoolTemplateDeath): kills the parked
  // template child without telling the bookkeeping, so the next Execute()
  // finds the go channel dead — exactly what a child OOM-killed between fill
  // and dispatch looks like. No-op for backends without a parked child.
  virtual void SimulateTemplateDeath() {}

 protected:
  dfunc::FunctionSpec spec_;
  std::shared_ptr<MemoryContext> context_;
};

// Thread-safe. One per Platform; engines Release from worker threads while
// the dispatcher Acquires and the fill thread Ticks.
class SandboxPool {
 public:
  struct Config {
    IsolationBackend backend = IsolationBackend::kThread;
    // Per-function clamp on the policy's target depth.
    int max_depth_per_function = 8;
    // Global cap on shelved sandboxes across all functions.
    int max_total = 64;
    // When shelved depth is at or below this, batch-class acquires miss
    // (cold create) so the remaining warm sandboxes stay available for
    // interactive requests — priority requests bypass the pool-miss cold
    // path even under a batch flood.
    int interactive_reserve = 0;
    dpolicy::PrewarmOptions prewarm;
    // Overrides the default per-function PrewarmPolicy (parity tests pin
    // options this way). Called once per function.
    std::function<std::unique_ptr<dpolicy::PrewarmPolicy>()> policy_factory;
  };

  SandboxPool(Config config, MemoryAccountant* accountant);
  ~SandboxPool();

  SandboxPool(const SandboxPool&) = delete;
  SandboxPool& operator=(const SandboxPool&) = delete;

  // Dispatch-side: records the arrival for the EWMA and returns a warm
  // sandbox whose context is ready to receive inputs, or nullptr on miss
  // (the caller cold-creates as before).
  std::shared_ptr<WarmSandbox> Acquire(const dfunc::FunctionSpec& spec,
                                       PriorityClass priority);

  // Completion-side: scrub, re-arm, and re-shelf — or retire when the
  // function's target no longer wants it, a cap is hit, the sandbox is
  // unhealthy, or the pool is draining. Safe to call with sandboxes whose
  // execution was cancelled or timed out.
  void Release(std::shared_ptr<WarmSandbox> sandbox);

  // One policy step: per function, feed cumulative arrivals to the
  // PrewarmPolicy and fill/retire toward its target. Driven through
  // RequestTick in the runtime, called directly by tests, and mirrored in
  // virtual time by dsim's pool model.
  void Tick(dbase::Micros now_us);

  // Runs Tick(now_us) on the pool's `pool-fill` thread, started by the
  // first request. The ControlPlane's tick calls this from the reactor,
  // which must not block, while a fill forks a template and waits for its
  // ack. (Not on a compute engine: there a fill would count as compute
  // work in the queue-growth signal the control plane shifts cores on.)
  // Requests that arrive while a Tick runs collapse into one, carrying the
  // latest now_us.
  void RequestTick(dbase::Micros now_us);

  // Engine-side: a leased sandbox's template child turned out to be dead at
  // dispatch (Execute reported kPoolChildLost) and the caller recovered
  // with a cold fork. Counted separately from misses: the request still
  // *waited* like a miss but the shelf lied about readiness.
  void CountChildLost();

  // Stops re-arming, joins the fill thread and empties every shelf
  // (killing parked template children). Idempotent; the destructor calls
  // it too.
  void Shutdown();

  SandboxPoolStats Stats() const;
  // (now_us, total shelved) recorded at each Tick — the pool-depth
  // timeline the sim-vs-runtime parity assertion compares.
  std::vector<std::pair<dbase::Micros, int>> DepthTrace() const;
  // Last per-function decisions, keyed by function name (statz).
  std::vector<std::pair<std::string, dpolicy::PrewarmDecision>> LastDecisions() const;

 private:
  struct FunctionPool {
    dfunc::FunctionSpec spec;
    std::unique_ptr<dpolicy::PrewarmPolicy> policy;
    std::vector<std::shared_ptr<WarmSandbox>> shelved;
    uint64_t arrivals = 0;
    int leased = 0;
    int target = 0;
    dpolicy::PrewarmDecision last_decision;
  };

  // Creates one warm sandbox (context + template fork / instantiated
  // state). Runs outside mu_ — fills fork and spin. Null on failure.
  std::shared_ptr<WarmSandbox> CreateWarm(const dfunc::FunctionSpec& spec);

  FunctionPool& PoolForLocked(const dfunc::FunctionSpec& spec);
  // The pool-fill thread's body: Tick for each collapsed request.
  void FillLoop();

  Config config_;
  // Fill-time cost model (Table 1 defaults for the backend) and the shared
  // executor the thread-flavoured warm sandboxes delegate to. Warm
  // sandboxes hold a raw pointer to the executor; the Platform keeps the
  // pool alive past engine shutdown, so no lease outlives it.
  BackendCostModel costs_;
  std::unique_ptr<SandboxExecutor> executor_;
  MemoryAccountant* accountant_;
  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;
  std::unordered_map<std::string, FunctionPool> pools_;  // Guarded by mu_.
  int total_shelved_ = 0;                                // Guarded by mu_.
  int total_leased_ = 0;                                 // Guarded by mu_.
  SandboxPoolStats stats_;                               // Guarded by mu_ (counters).
  std::vector<std::pair<dbase::Micros, int>> depth_trace_;  // Guarded by mu_.

  std::mutex fill_mu_;
  std::condition_variable fill_cv_;
  std::optional<dbase::Micros> fill_now_;  // Guarded by fill_mu_; next Tick's time.
  dbase::JoiningThread fill_thread_;       // Last: joined before the state above dies.
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_SANDBOX_POOL_H_
