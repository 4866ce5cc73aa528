// Engines (§5): compute engines run one sandboxed task at a time to
// completion on a dedicated core; communication engines keep many calls
// outstanding at once. A WorkerSet owns one worker thread per core and one
// task queue per role; a worker blocks in one place, on its role's queue,
// until a task arrives or (comm) a reply is due; comm latency is a reactor
// timer, so no worker holds a call. The control plane re-labels workers
// between the two roles at runtime ("re-assigns a CPU core from the
// communication engine type to the compute engine type") and wakes the
// re-labelled worker.
#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/queue.h"
#include "src/base/stats.h"
#include "src/base/thread.h"
#include "src/func/function.h"
#include "src/http/service_mesh.h"
#include "src/policy/elasticity.h"
#include "src/runtime/comm_function.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"

namespace dandelion {

enum class EngineType { kCompute, kCommunication };

// A unit of compute work: the function, its inputs (a prepared memory
// context on the process backend, SandboxOptions::input_sets on the thread
// backend) and metadata. The engine invokes `done` exactly once with the
// outcome. When `control` is set, the task belongs to a tracked invocation:
// its class picks the queue lane, a task of a dead invocation is dropped at
// dequeue (done fires with the terminal status, the sandbox never runs),
// and the invocation deadline clamps the sandbox timeout.
struct ComputeTask {
  dfunc::FunctionSpec spec;
  std::shared_ptr<MemoryContext> context;
  SandboxOptions options;
  std::function<void(ExecOutcome)> done;
  dbase::Micros enqueue_time_us = 0;
  std::shared_ptr<InvocationControl> control;
};

// A unit of communication work: raw request bytes produced by an untrusted
// function. The engine sanitizes, dispatches to the service mesh, and
// returns the serialized response (or an HTTP-level error — §4.4 failure
// forwarding). `handler` selects the communication function (HTTP when
// empty); handlers are trusted platform code. A dead invocation's comm
// task skips the mesh call and modelled latency entirely.
struct CommTask {
  // A Payload, not a string: the producing function's output item usually
  // aliases its memory context or the frontend request body, and the comm
  // engine only ever reads it (string_view into the handler).
  dfunc::Payload raw_request;
  std::function<CommCallResult(dhttp::ServiceMesh&, std::string_view)> handler;
  std::function<void(dhttp::HttpResponse, dbase::Micros latency_us)> done;
  dbase::Micros enqueue_time_us = 0;
  std::shared_ptr<InvocationControl> control;
};

struct EngineStats {
  uint64_t compute_tasks = 0;
  uint64_t comm_tasks = 0;
  // Tasks dequeued after their invocation died (cancelled / past deadline):
  // dropped without entering a sandbox or calling the mesh.
  uint64_t compute_aborted = 0;
  uint64_t comm_aborted = 0;
  uint64_t compute_queue_len = 0;
  uint64_t comm_queue_len = 0;
  // Comm calls taken and not yet delivered (occupied green threads of the
  // whole comm role): the reply waits on its latency timer or to be run.
  uint64_t comm_inflight = 0;
  int compute_workers = 0;
  int comm_workers = 0;
  // Always 0: one queue per role leaves nothing to steal. Kept for
  // readers of the old counters.
  uint64_t compute_steals = 0;
  uint64_t comm_steals = 0;
  // Queue-wait (enqueue → dequeue) distribution, µs. Approximate (log2
  // buckets); the control plane's growth signal is exact, this is for
  // operators.
  uint64_t compute_wait_p50_us = 0;
  uint64_t compute_wait_p99_us = 0;
  uint64_t comm_wait_p50_us = 0;
  uint64_t comm_wait_p99_us = 0;
  // Forked children's own CPU (user + system, from their reap), µs.
  // Approximate like the waits; 0 on the thread backend.
  uint64_t child_cpu_p50_us = 0;
  uint64_t child_cpu_p99_us = 0;
};

// The pool of engine workers. Each role has one two-lane task queue that
// all of its workers block on, so a task binds late to the first free core
// of its role (§5). A role shift flips the worker's role and wakes the old
// role's waiters; the shifted worker leaves that queue and takes nothing
// from it.
class WorkerSet {
 public:
  struct Config {
    int num_workers = 4;
    int initial_comm_workers = 1;
    IsolationBackend backend = IsolationBackend::kThread;
    // Max in-flight requests per communication worker ("green threads"),
    // counted for the role: comm_parallelism × comm_workers().
    int comm_parallelism = 64;
  };

  WorkerSet(Config config, dhttp::ServiceMesh* mesh);
  ~WorkerSet();

  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  // Lands the whole batch in a single queue crossing — the dispatcher's
  // amortized path for each/key fan-outs. All-or-nothing: returns false
  // (dropping the batch) when the engines are shut down.
  bool SubmitComputeBatch(std::vector<ComputeTask> tasks);
  // Also false when a one-worker set, which has no comm worker, gets one.
  bool SubmitComm(CommTask task);

  // Control-plane hooks: move one worker between roles. Returns false when
  // the source role is at its minimum of one worker.
  bool ShiftWorkerToCompute();
  bool ShiftWorkerToComm();
  // Multi-core shift: moves up to |n| workers toward compute (n > 0) or
  // toward comm (n < 0), stopping at one worker per role. Returns the
  // signed count actually moved.
  int ShiftWorkers(int n);

  int compute_workers() const;
  int comm_workers() const;
  int total_workers() const { return static_cast<int>(roles_.size()); }

  // Cumulative queue counters for controller error signals.
  uint64_t compute_pushed() const { return compute_queue_.total_pushed(); }
  uint64_t compute_popped() const { return compute_queue_.total_popped(); }
  uint64_t comm_pushed() const { return comm_queue_.total_pushed(); }
  uint64_t comm_popped() const { return comm_queue_.total_popped(); }

  // The engine half of one control-plane sample: the split, backlogs and
  // comm occupancy. The split is read once, so compute_workers +
  // comm_workers always equals the pool size even when a role shift races
  // the sample. now_us and the growths are left for the control plane,
  // which owns the clock and the counter baselines.
  dpolicy::ElasticitySignals Signals() const;

  EngineStats Stats() const;

  // A comm reply is delivered when its modelled latency has passed (real
  // runtime), or at once when disabled (unit tests).
  void set_sleep_for_modeled_latency(bool enabled) { sleep_latency_ = enabled; }

  // Delivers held replies without the rest of their latency.
  void Shutdown();

 private:
  struct Reply {
    dhttp::HttpResponse response;
    dbase::Micros latency_us = 0;
    std::function<void(dhttp::HttpResponse, dbase::Micros)> done;
  };

  void WorkerLoop(int index);
  // Moves one worker from `from` to `to` unless `from` is down to one.
  bool ShiftOneWorker(EngineType from, EngineType to);
  void RunComputeTask(ComputeTask task);
  // Issues the mesh call into an already taken slot; holds the reply on a
  // latency timer or delivers it at once.
  void StartCommTask(CommTask task);
  int64_t CommBudget() const;  // comm_parallelism × comm_workers().
  // Delivers the oldest due reply; false when none is due.
  bool DeliverOneDue();
  // Frees the reply's slot, then runs its continuation on this worker.
  void Deliver(Reply reply);

  Config config_;
  dhttp::ServiceMesh* mesh_;
  std::unique_ptr<SandboxExecutor> sandbox_;
  dbase::MpmcQueue<ComputeTask> compute_queue_;
  dbase::MpmcQueue<CommTask> comm_queue_;
  std::vector<std::unique_ptr<std::atomic<EngineType>>> roles_;
  std::vector<dbase::JoiningThread> workers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> sleep_latency_{true};
  std::atomic<uint64_t> compute_done_{0};
  std::atomic<uint64_t> comm_done_{0};
  std::atomic<uint64_t> compute_aborted_{0};
  std::atomic<uint64_t> comm_aborted_{0};
  // Comm calls taken and not yet delivered, for the whole role.
  std::atomic<int64_t> comm_inflight_{0};

  // One reactor timer per held reply; firing moves it to due_.
  dbase::EventLoop::Scope timers_{dbase::EventLoop::Process()};
  std::mutex replies_mu_;  // Taken inside the comm queue's lock, never around it.
  std::list<Reply> held_;  // On their timers. Guarded by replies_mu_.
  std::list<Reply> due_;   // Guarded by replies_mu_.

  mutable std::mutex wait_mu_;
  dbase::LogHistogram compute_wait_us_;  // Guarded by wait_mu_.
  dbase::LogHistogram comm_wait_us_;     // Guarded by wait_mu_.
  dbase::LogHistogram child_cpu_us_;     // Guarded by wait_mu_.
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_ENGINE_H_
