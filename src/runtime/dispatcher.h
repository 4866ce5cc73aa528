// The dispatcher (§5, §6.1): orchestrates composition invocations. It
// tracks input/output dependencies, decides when each function is ready,
// prepares each compute instance (an isolated memory context on the process
// backend, its input sets by reference on the thread backend), enqueues tasks
// on the engine queues, fans instances out according to the all/each/key
// distribution keywords, merges instance outputs, and applies the
// conditional-execution rule (§4.4: a function runs only when every
// non-optional input set contains at least one item).
//
// The dispatcher runs on the process reactor (dbase::EventLoop::Process()),
// beside the frontend, the router and NodeServer: its per-invocation DAG
// state, merging, retry scheduling and counters are reactor-only and take
// no lock. An engine completion is the one crossing: each compute and comm
// instance's `done` posts its outcome to the dispatcher's scope, and
// completions that land in one loop turn run as one batch.
//
// Invocations are first-class (src/runtime/invocation.h): Submit() takes an
// InvocationRequest (deadline, priority class, id) and returns an
// InvocationHandle. The shared InvocationControl propagates the deadline
// and the cancel flag into nested compositions, queued engine tasks, and
// running sandboxes; a dead invocation launches no further instances. One
// stop path ends it: Submit installs the control's stop hook, which fails
// the invocation with the recorded reason on the dispatcher's reactor
// scope, and the deadline is a reactor timer whose only action is
// RequestStop(kDeadlineExceeded) — so a cancel or a passed deadline ends an
// invocation at once, even one parked on a slow communication call.
#ifndef SRC_RUNTIME_DISPATCHER_H_
#define SRC_RUNTIME_DISPATCHER_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/event_loop.h"
#include "src/dsl/graph.h"
#include "src/func/data.h"
#include "src/policy/retry.h"
#include "src/runtime/engine.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/registry.h"

namespace dandelion {

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
  // seams, and the fan-out's per-binding materializations.
  uint64_t bytes_copied = 0;
  uint64_t bytes_aliased = 0;
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
    // Process isolation requires MAP_SHARED contexts; without it (the
    // thread backend) an instance maps no context.
    bool shared_contexts = false;
    // Upper bound on how long the blocking Invoke() wrapper waits for a
    // completion when the request's deadline is later or absent — a lost
    // callback must surface as kDeadlineExceeded, not hang the caller
    // forever.
    dbase::Micros max_blocking_wait_us = 120 * dbase::kMicrosPerSecond;
    // Retry/circuit-breaker policy for sandbox-level failures (crash,
    // transient resource exhaustion). Dandelion functions
    // are pure computations over declared inputs, so these relaunches are
    // always side-effect-safe. Functional errors a body returns are never
    // retried.
    dpolicy::RetryOptions retry;
  };

  // Every composition and callee is resolved in `registry`, where a name
  // names one function, communication function or composition.
  Dispatcher(const Registry* registry, WorkerSet* workers, MemoryAccountant* accountant,
             Config config);
  ~Dispatcher();

  using ResultCallback = std::function<void(dbase::Result<dfunc::DataSetList>)>;

  // Primary entry point: submits the invocation and returns a handle. The
  // callback fires exactly once, on the reactor, with the results or the
  // terminal status (kCancelled / kDeadlineExceeded / the first instance
  // failure). Called on the reactor (the frontend, NodeAgent) it runs
  // inline, and a synchronous failure (unknown callee, breaker fast-fail,
  // every instance skipped) may run the callback before Submit returns.
  // From any other thread the caller builds the handle, the stop hook and
  // the deadline timer, and posts the graph's start to the reactor.
  InvocationHandle Submit(InvocationRequest request, ResultCallback callback);

  // Blocking counterpart: waits for the result, bounded by the request
  // deadline (and Config::max_blocking_wait_us as a backstop). On timeout
  // the invocation is stopped and kDeadlineExceeded returned. On the
  // reactor it would wait on itself: there it submits nothing and returns
  // kFailedPrecondition at once.
  dbase::Result<dfunc::DataSetList> Invoke(InvocationRequest request);

  // Thread-safe: off the reactor they read through the scope's Run.
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
    std::shared_ptr<const dfunc::FunctionSpec> spec;
    std::shared_ptr<const dfunc::DataSetList> inputs;
    int attempt = 0;
    // The failure that triggered the retry — surfaced if the dispatcher is
    // destroyed while the retry is pending.
    dbase::Status original_status;
  };

  // One graph invocation in two steps, so that Submit can install the stop
  // hook and arm the deadline on the root before anything runs; StartGraph
  // and everything after it run on the reactor. The control block is
  // shared across nesting levels (the root's deadline and cancel flag
  // govern the whole tree).
  std::shared_ptr<InvocationState> NewInvocation(
      std::shared_ptr<const ddsl::CompositionGraph> graph, int depth, ResultCallback callback,
      std::shared_ptr<InvocationControl> control);
  void StartGraph(const std::shared_ptr<InvocationState>& inv, dfunc::DataSetList args);

  void StartNode(const std::shared_ptr<InvocationState>& inv, size_t node_index);
  // Prepares one compute instance (inputs, a context on the process
  // backend, done callback) without submitting it; nullopt after a Fail.
  // Instances of one fan-out are then handed to the engines as a single
  // batch.
  std::optional<ComputeTask> BuildComputeTask(const std::shared_ptr<InvocationState>& inv,
                                              size_t node_index, size_t instance_index,
                                              dfunc::DataSetList inputs,
                                              std::shared_ptr<const dfunc::FunctionSpec> spec,
                                              int attempt = 0);
  void LaunchCommInstance(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                          size_t instance_index, dfunc::DataSetList inputs,
                          const CommFunctionSpec& spec);
  void LaunchNestedInstance(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                            size_t instance_index, dfunc::DataSetList inputs,
                            std::shared_ptr<const ddsl::CompositionGraph> subgraph);
  void OnInstanceDone(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                      size_t instance_index, dbase::Result<dfunc::DataSetList> outputs);
  void MergeNode(const std::shared_ptr<InvocationState>& inv, size_t node_index);
  void DeliverValue(const std::shared_ptr<InvocationState>& inv, const std::string& value,
                    dfunc::DataSet set);
  void Fail(const std::shared_ptr<InvocationState>& inv, dbase::Status status);
  void MaybeComplete(const std::shared_ptr<InvocationState>& inv);
  // The end of an invocation, failed or completed: cancels a root's
  // deadline timer and runs the callback.
  void Finish(const std::shared_ptr<InvocationState>& inv,
              dbase::Result<dfunc::DataSetList> result);

  // --- Retry executive ------------------------------------------------------
  // Every compute instance completes through OnComputeOutcome: it feeds the
  // failure kind into the RetryPolicy/breaker, and either schedules a
  // backed-off relaunch (retry-safe kinds, budget permitting) or lets the
  // failure surface through OnInstanceDone. A relaunch is a reactor timer
  // at the backoff's due time.
  void OnComputeOutcome(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                        size_t instance_index, std::shared_ptr<const dfunc::FunctionSpec> spec,
                        std::shared_ptr<const dfunc::DataSetList> retained_inputs, int attempt,
                        ExecOutcome outcome);
  void ScheduleRetry(dbase::Micros due_us, RetryJob job);
  void RelaunchCompute(RetryJob job);

  // Everything the dispatcher runs on the process reactor: the graph starts
  // posted by off-reactor Submits, the engines' completions, the stop
  // hooks' posts, the deadline timers and the retry backoff's timers.
  // Shared with every stop hook and engine completion, so one that outlives
  // the dispatcher posts into a closed scope and touches nothing; the
  // destructor closes it before anything else.
  const std::shared_ptr<dbase::EventLoop::Scope> scope_;

  const Registry* registry_;
  WorkerSet* workers_;
  MemoryAccountant* accountant_;
  Config config_;

  // The one field written off the reactor: an off-reactor Submit takes its
  // id on the caller's thread.
  std::atomic<uint64_t> next_invocation_id_{1};

  // Reactor-only from here on.
  uint64_t invocations_started_ = 0;
  uint64_t invocations_completed_ = 0;
  uint64_t invocations_failed_ = 0;
  uint64_t invocations_cancelled_ = 0;
  uint64_t invocations_deadline_exceeded_ = 0;
  uint64_t compute_instances_ = 0;
  uint64_t comm_instances_ = 0;
  uint64_t skipped_instances_ = 0;
  int64_t inflight_by_class_[kNumPriorityClasses] = {};

  // --- Retry policy + pending relaunches ------------------------------------
  uint64_t sandbox_failures_ = 0;
  dpolicy::RetryPolicy retry_policy_;
  // Pending relaunches, each until its backoff timer relaunches it or the
  // destructor fails it.
  std::list<RetryJob> retry_jobs_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_DISPATCHER_H_
