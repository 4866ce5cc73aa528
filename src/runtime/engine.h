// Engines (§5): compute engines run one sandboxed task at a time to
// completion on a dedicated core; communication engines hold many calls
// cooperatively until each is due. A WorkerSet owns one worker thread per
// core, which blocks in one place until a task arrives or a held call is
// due. The control plane re-labels workers between the two roles at runtime
// ("re-assigns a CPU core from the communication engine type to the compute
// engine type") and wakes the re-labelled worker.
#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <mutex>

#include "src/base/clock.h"
#include "src/base/sharded_queue.h"
#include "src/base/stats.h"
#include "src/base/thread.h"
#include "src/func/registry.h"
#include "src/http/service_mesh.h"
#include "src/policy/elasticity.h"
#include "src/runtime/comm_function.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"
#include "src/runtime/sandbox_pool.h"

namespace dandelion {

enum class EngineType { kCompute, kCommunication };

// A unit of compute work: a prepared memory context plus metadata. The
// engine invokes `done` exactly once with the outcome. When `control` is
// set, the task belongs to a tracked invocation: its class picks the queue
// lane, a task of a dead invocation is dropped at dequeue (done fires with
// the terminal status, the sandbox never runs), and the invocation
// deadline clamps the sandbox timeout.
struct ComputeTask {
  dfunc::FunctionSpec spec;
  std::shared_ptr<MemoryContext> context;
  SandboxOptions options;
  std::function<void(ExecOutcome)> done;
  dbase::Micros enqueue_time_us = 0;
  std::shared_ptr<InvocationControl> control;
  // Set when the dispatcher got a pool hit: `context` aliases the warm
  // sandbox's context and the engine executes via the warm sandbox instead
  // of the cold executor, releasing it back to the pool afterwards.
  std::shared_ptr<WarmSandbox> warm;
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
  // Comm requests currently in flight on comm engines (occupied green
  // threads, mesh call issued but modelled latency not yet elapsed).
  uint64_t comm_inflight = 0;
  int compute_workers = 0;
  int comm_workers = 0;
  // Per-shard backlog (one entry per worker) and cumulative steals, so
  // operators can see imbalance the aggregate depth hides.
  std::vector<uint64_t> compute_shard_depths;
  std::vector<uint64_t> comm_shard_depths;
  uint64_t compute_steals = 0;
  uint64_t comm_steals = 0;
  // Queue-wait (enqueue → dequeue) distribution, µs. Approximate (log2
  // buckets); the control plane's growth signal is exact, this is for
  // operators.
  uint64_t compute_wait_p50_us = 0;
  uint64_t compute_wait_p99_us = 0;
  uint64_t comm_wait_p50_us = 0;
  uint64_t comm_wait_p99_us = 0;
};

// The pool of engine workers. Task queues are sharded per worker: a worker
// pops its own shard first and steals from siblings before it blocks, so
// dispatch scales past the single-mutex ceiling while keeping late binding
// of tasks to cores (§5). Submissions route to a shard whose worker holds
// the matching role; role shifts re-home the departed shard's residue.
class WorkerSet {
 public:
  struct Config {
    int num_workers = 4;
    int initial_comm_workers = 1;
    IsolationBackend backend = IsolationBackend::kThread;
    // Max in-flight requests per communication worker ("green threads").
    int comm_parallelism = 64;
  };

  WorkerSet(Config config, dhttp::ServiceMesh* mesh);
  ~WorkerSet();

  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  bool SubmitCompute(ComputeTask task);
  // Lands the whole batch on one shard in a single queue crossing — the
  // dispatcher's amortized path for each/key fan-outs. All-or-nothing:
  // returns false (dropping the batch) when the engines are shut down.
  bool SubmitComputeBatch(std::vector<ComputeTask> tasks);
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

  // Held comm calls complete when their modelled latency has passed (real
  // runtime), or at once when disabled (unit tests).
  void set_sleep_for_modeled_latency(bool enabled) { sleep_latency_ = enabled; }

  // When set, tasks carrying a warm sandbox release it back to this pool
  // after execution (and on the dead-invocation drop path). The pool must
  // outlive the worker set; the Platform owns both in that order.
  void set_sandbox_pool(SandboxPool* pool) { sandbox_pool_ = pool; }

  void Shutdown();

 private:
  // A comm request whose mesh call completed but whose modelled network
  // latency has not yet elapsed — the cooperative runtime's pending I/O.
  struct InFlight {
    dbase::Micros ready_at_us = 0;
    dhttp::HttpResponse response;
    dbase::Micros latency_us = 0;
    std::function<void(dhttp::HttpResponse, dbase::Micros)> done;
  };

  void WorkerLoop(int index);
  // Shard of a worker currently holding `role`, preferring the least
  // loaded by the queue's lock-free approximate depth — the submit path
  // takes no shard lock beyond the final push; any shard when no worker
  // matches (stealing then redistributes).
  template <typename Task>
  size_t PickShard(EngineType role, const dbase::ShardedTaskQueue<Task>& queue) const {
    // The scan start rotates so depth ties (the common all-zero idle case)
    // spread round-robin instead of funneling every submission onto the
    // lowest-index shard — strict less-than keeps the first of a tie.
    const size_t n = roles_.size();
    const size_t start = submit_rr_.fetch_add(1, std::memory_order_relaxed);
    size_t best = static_cast<size_t>(-1);
    size_t best_depth = 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (start + k) % n;
      if (roles_[i]->load(std::memory_order_relaxed) != role) {
        continue;
      }
      const size_t depth = queue.ApproxShardSize(i);
      if (best == static_cast<size_t>(-1) || depth < best_depth) {
        best = i;
        best_depth = depth;
      }
    }
    if (best != static_cast<size_t>(-1)) {
      return best;
    }
    // No worker currently holds the role (transient during shifts): any
    // shard; stealing and re-homing redistribute.
    return start % n;
  }
  // Shards of all workers currently holding `role`, except `excluding`.
  std::vector<size_t> ShardsWithRole(EngineType role, size_t excluding) const;
  void RunComputeTask(ComputeTask task);
  // Issues the mesh call and appends the pending completion to `inflight`.
  void StartCommTask(CommTask task, std::vector<InFlight>* inflight);
  void CompleteDue(std::vector<InFlight>* inflight, dbase::Micros now);

  Config config_;
  dhttp::ServiceMesh* mesh_;
  std::unique_ptr<SandboxExecutor> sandbox_;
  SandboxPool* sandbox_pool_ = nullptr;  // Set before workers start; optional.
  dbase::ShardedTaskQueue<ComputeTask> compute_queue_;
  dbase::ShardedTaskQueue<CommTask> comm_queue_;
  std::vector<std::unique_ptr<std::atomic<EngineType>>> roles_;
  std::vector<dbase::JoiningThread> workers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> sleep_latency_{true};
  std::atomic<uint64_t> compute_done_{0};
  std::atomic<uint64_t> comm_done_{0};
  std::atomic<uint64_t> compute_aborted_{0};
  std::atomic<uint64_t> comm_aborted_{0};
  // Occupied comm green threads across workers (incremented when a mesh
  // call is issued, decremented when its modelled latency elapses).
  std::atomic<int64_t> comm_inflight_{0};
  // Fallback rotation for submissions racing a role shift.
  mutable std::atomic<uint64_t> submit_rr_{0};

  mutable std::mutex wait_mu_;
  dbase::LogHistogram compute_wait_us_;  // Guarded by wait_mu_.
  dbase::LogHistogram comm_wait_us_;     // Guarded by wait_mu_.
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_ENGINE_H_
