// The dispatcher (§5, §6.1): orchestrates composition invocations. It
// tracks input/output dependencies, decides when each function is ready,
// prepares an isolated memory context per compute instance, enqueues tasks
// on the engine queues, fans instances out according to the all/each/key
// distribution keywords, merges instance outputs, and applies the
// conditional-execution rule (§4.4: a function runs only when every
// non-optional input set contains at least one item).
//
// Invocations are first-class (src/runtime/invocation.h): Submit() takes an
// InvocationRequest (deadline, priority class, id) and returns an
// InvocationHandle. The shared InvocationControl propagates the deadline
// and the cancel flag into nested compositions, queued engine tasks, and
// running sandboxes; a dead invocation launches no further instances. A
// deadline reaper timer terminates past-deadline invocations even when they
// are parked on slow communication calls.
#ifndef SRC_RUNTIME_DISPATCHER_H_
#define SRC_RUNTIME_DISPATCHER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/event_loop.h"
#include "src/dsl/graph.h"
#include "src/func/data.h"
#include "src/func/registry.h"
#include "src/policy/retry.h"
#include "src/runtime/engine.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"

namespace dandelion {

// Thread-safe name → composition graph catalog (the "Function / DAG
// Registry" box of Figure 4, composition half).
class CompositionRegistry {
 public:
  dbase::Status Register(ddsl::CompositionGraph graph);
  dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> Lookup(
      const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ddsl::CompositionGraph>> graphs_;
};

// Aggregate counters exported by the dispatcher. The invocation counters
// count graph invocations (nested compositions count once per level); the
// in-flight gauges count external Submit()s still running, by class.
struct DispatcherStats {
  uint64_t invocations_started = 0;
  uint64_t invocations_completed = 0;
  uint64_t invocations_failed = 0;
  uint64_t invocations_cancelled = 0;
  uint64_t invocations_deadline_exceeded = 0;
  uint64_t compute_instances = 0;
  uint64_t comm_instances = 0;
  uint64_t skipped_instances = 0;
  uint64_t inflight_interactive = 0;
  uint64_t inflight_batch = 0;
  // Composition data plane (process-wide dfunc::DataPlaneStats snapshot):
  // payload bytes physically copied vs. moved by reference at data-plane
  // seams, plus the seam-event counters behind them.
  uint64_t bytes_copied = 0;
  uint64_t bytes_aliased = 0;
  uint64_t payload_promotions = 0;
  uint64_t cow_detaches = 0;
  uint64_t binding_materializations = 0;
  // Fault containment: sandbox-level failures observed (non-kNone
  // FailureKinds), instance relaunches the RetryPolicy granted/denied, and
  // circuit-breaker activity (fast-failed admissions, trips, recoveries,
  // currently-open breakers).
  uint64_t sandbox_failures = 0;
  uint64_t retries_attempted = 0;
  uint64_t retries_denied = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_recoveries = 0;
  int breakers_open = 0;
};

// Nesting bound for compositions invoking compositions (§4.1).
constexpr int kMaxCompositionDepth = 16;

class Dispatcher {
 public:
  struct Config {
    // Process isolation requires MAP_SHARED contexts.
    bool shared_contexts = false;
    // Upper bound on how long the blocking Invoke() wrappers wait for a
    // completion when the request itself carries no deadline — a lost
    // callback must surface as kDeadlineExceeded, not hang the caller
    // forever. 0 disables the cap (legacy behavior).
    dbase::Micros max_blocking_wait_us = 120 * dbase::kMicrosPerSecond;
    // When set, compute instances try Acquire() before cold-creating a
    // context. Not owned; must outlive the dispatcher.
    SandboxPool* sandbox_pool = nullptr;
    // Retry/circuit-breaker policy for sandbox-level failures (crash,
    // pool-child-lost, transient resource exhaustion). Dandelion functions
    // are pure computations over declared inputs, so these relaunches are
    // always side-effect-safe. Functional errors a body returns are never
    // retried.
    dpolicy::RetryOptions retry;
  };

  Dispatcher(const dfunc::FunctionRegistry* functions, const CompositionRegistry* compositions,
             const CommFunctionRegistry* comm_functions, WorkerSet* workers,
             MemoryAccountant* accountant, Config config);
  ~Dispatcher();

  using ResultCallback = std::function<void(dbase::Result<dfunc::DataSetList>)>;

  // Primary entry point: submits the invocation and returns a handle. The
  // callback fires exactly once — possibly on an engine thread, possibly
  // before Submit returns — with the results or the terminal status
  // (kCancelled / kDeadlineExceeded / the first instance failure).
  InvocationHandle Submit(InvocationRequest request, ResultCallback callback);

  // Blocking counterpart: waits for the result, bounded by the request
  // deadline (and Config::max_blocking_wait_us as a backstop). On timeout
  // the invocation is cancelled and kDeadlineExceeded returned.
  dbase::Result<dfunc::DataSetList> Invoke(InvocationRequest request);

  DispatcherStats Stats() const;
  // Per-function circuit-breaker states (statz's `breaker` section).
  std::vector<dpolicy::BreakerSnapshot> Breakers() const;

 private:
  struct InvocationState;

  // One scheduled instance relaunch. Inputs are retained by shared_ptr at
  // build time (refcount bumps, no payload copies — buffers are immutable
  // slices), so a relaunch can re-marshal them into a fresh context; the
  // failed child may have corrupted the old one.
  struct RetryJob {
    // Strong reference: a pending relaunch IS an outstanding instance of the
    // invocation — nothing else is guaranteed to keep the state alive while
    // the backoff elapses.
    std::shared_ptr<InvocationState> inv;
    size_t node_index = 0;
    size_t instance_index = 0;
    dfunc::FunctionSpec spec;
    std::shared_ptr<const dfunc::DataSetList> inputs;
    int attempt = 0;
    // The failure that triggered the retry — surfaced if the dispatcher is
    // destroyed while the retry is pending.
    dbase::Status original_status;
    dbase::EventLoop::TimerId timer = 0;  // Set under retry_mu_ when armed.
  };

  // Starts one graph invocation; the control block is shared across nesting
  // levels (the root's deadline and cancel flag govern the whole tree).
  // Returns the created state, or nullptr when the invocation was rejected
  // synchronously (depth bound).
  std::shared_ptr<InvocationState> InvokeGraphAsync(
      std::shared_ptr<const ddsl::CompositionGraph> graph, dfunc::DataSetList args, int depth,
      ResultCallback callback, std::shared_ptr<InvocationControl> control);

  void StartNodeLocked(const std::shared_ptr<InvocationState>& inv, size_t node_index);
  // Prepares one compute instance (context + marshalled inputs + done
  // callback) without submitting it; nullopt after a FailLocked. Instances
  // of one fan-out are then handed to the engines as a single batch.
  std::optional<ComputeTask> BuildComputeTask(const std::shared_ptr<InvocationState>& inv,
                                              size_t node_index, size_t instance_index,
                                              dfunc::DataSetList inputs,
                                              const dfunc::FunctionSpec& spec, int attempt = 0);
  void LaunchCommInstance(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                          size_t instance_index, dfunc::DataSetList inputs,
                          const CommFunctionSpec& spec);
  void LaunchNestedInstance(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                            size_t instance_index, dfunc::DataSetList inputs,
                            std::shared_ptr<const ddsl::CompositionGraph> subgraph);
  void OnInstanceDone(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                      size_t instance_index, dbase::Result<dfunc::DataSetList> outputs);
  void MergeNodeLocked(const std::shared_ptr<InvocationState>& inv, size_t node_index);
  void DeliverValueLocked(const std::shared_ptr<InvocationState>& inv, const std::string& value,
                          dfunc::DataSet set);
  void FailLocked(const std::shared_ptr<InvocationState>& inv, dbase::Status status);
  void MaybeCompleteLocked(const std::shared_ptr<InvocationState>& inv);

  // --- Retry executive ------------------------------------------------------
  // Every compute instance completes through OnComputeOutcome: it feeds the
  // failure kind into the RetryPolicy/breaker, and either schedules a
  // backed-off relaunch (retry-safe kinds, budget permitting) or lets the
  // failure surface through OnInstanceDone. A relaunch is a reactor timer
  // at the backoff's due time.
  void OnComputeOutcome(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                        size_t instance_index, const dfunc::FunctionSpec& spec,
                        std::shared_ptr<const dfunc::DataSetList> retained_inputs, int attempt,
                        ExecOutcome outcome);
  void ScheduleRetry(dbase::Micros due_us, RetryJob job);
  void RelaunchCompute(RetryJob job);

  // --- Deadline reaper ------------------------------------------------------
  // Fails a root invocation at its deadline even when no instance is
  // running to observe it (e.g. parked on a long comm call): one reactor
  // timer per deadline-carrying Submit, cancelled when the invocation
  // finishes. Entries are keyed by the control block's address, not the
  // invocation id — callers may reuse explicit ids, and two live invocations
  // must not clobber each other's reaper entries.
  void ArmReaper(const InvocationControl* key, dbase::Micros deadline_us,
                 const std::shared_ptr<InvocationState>& inv);
  void DisarmReaper(const InvocationControl* key);

  // The reaper's and the retry backoff's timers, on the process reactor.
  // Created by the first timer, so a dispatcher that arms none starts no
  // reactor; the destructor closes it before anything else.
  dbase::EventLoop::Scope& Timers();

  const dfunc::FunctionRegistry* functions_;
  const CompositionRegistry* compositions_;
  const CommFunctionRegistry* comm_functions_;
  WorkerSet* workers_;
  MemoryAccountant* accountant_;
  Config config_;

  std::atomic<uint64_t> next_invocation_id_{1};
  std::atomic<uint64_t> invocations_started_{0};
  std::atomic<uint64_t> invocations_completed_{0};
  std::atomic<uint64_t> invocations_failed_{0};
  std::atomic<uint64_t> invocations_cancelled_{0};
  std::atomic<uint64_t> invocations_deadline_exceeded_{0};
  std::atomic<uint64_t> compute_instances_{0};
  std::atomic<uint64_t> comm_instances_{0};
  std::atomic<uint64_t> skipped_instances_{0};
  std::atomic<int64_t> inflight_by_class_[kNumPriorityClasses] = {};

  std::mutex reaper_mu_;
  // Reaper timer per control-block address (unique per live invocation;
  // the wrapped callback keeps the control alive until it disarms).
  std::map<const InvocationControl*, dbase::EventLoop::TimerId> reaper_entries_;

  // --- Retry policy + pending relaunches ------------------------------------
  std::atomic<uint64_t> sandbox_failures_{0};
  mutable std::mutex retry_mu_;
  dpolicy::RetryPolicy retry_policy_;  // Guarded by retry_mu_.
  // Pending relaunches by timer id, guarded by retry_mu_. Whoever erases a
  // job owns it: its timer callback relaunches it, the destructor fails it.
  std::map<dbase::EventLoop::TimerId, std::shared_ptr<RetryJob>> retry_jobs_;

  std::once_flag timers_once_;
  std::unique_ptr<dbase::EventLoop::Scope> timers_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_DISPATCHER_H_
