#include "src/runtime/engine.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/runtime/comm_function.h"
#include "src/runtime/fault.h"

namespace dandelion {
namespace {

// Untracked tasks (no control block) ride the urgent lane with interactive
// work: the legacy path must not be starvable by batch backlog.
bool TaskIsUrgent(const std::shared_ptr<InvocationControl>& control) {
  return control == nullptr || control->priority() == PriorityClass::kInteractive;
}

// Longest a worker blocks with nothing due: bounds how long a task parked
// on a busy sibling's shard waits to be stolen.
constexpr dbase::Micros kIdleTickUs = 1000;

}  // namespace

WorkerSet::WorkerSet(Config config, dhttp::ServiceMesh* mesh)
    : config_(config),
      mesh_(mesh),
      sandbox_(CreateSandboxExecutor(config.backend)),
      compute_queue_(static_cast<size_t>(std::max(1, config.num_workers))),
      comm_queue_(static_cast<size_t>(std::max(1, config.num_workers))) {
  const int workers = std::max(1, config_.num_workers);
  const int comm = std::clamp(config_.initial_comm_workers, workers > 1 ? 1 : 0, workers - 1);
  roles_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    const EngineType role = i < comm ? EngineType::kCommunication : EngineType::kCompute;
    roles_.push_back(std::make_unique<std::atomic<EngineType>>(role));
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back("engine-" + std::to_string(i), [this, i] { WorkerLoop(i); });
  }
}

WorkerSet::~WorkerSet() { Shutdown(); }

std::vector<size_t> WorkerSet::ShardsWithRole(EngineType role, size_t excluding) const {
  std::vector<size_t> shards;
  for (size_t i = 0; i < roles_.size(); ++i) {
    if (i != excluding && roles_[i]->load(std::memory_order_relaxed) == role) {
      shards.push_back(i);
    }
  }
  return shards;
}

bool WorkerSet::SubmitCompute(ComputeTask task) {
  task.enqueue_time_us = dbase::MonotonicClock::Get()->NowMicros();
  const bool urgent = TaskIsUrgent(task.control);
  const size_t shard = PickShard(EngineType::kCompute, compute_queue_);
  return compute_queue_.PushToShard(shard, std::move(task), urgent);
}

bool WorkerSet::SubmitComputeBatch(std::vector<ComputeTask> tasks) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  for (auto& task : tasks) {
    task.enqueue_time_us = now;
  }
  // One fan-out belongs to one invocation, so the whole batch shares a lane.
  const bool urgent = tasks.empty() || TaskIsUrgent(tasks.front().control);
  // A fan-out bigger than one worker's bite is split into per-shard chunks:
  // still one queue crossing per chunk, but the siblings consume their own
  // chunks in parallel instead of serializing steals against one victim
  // shard. Small fan-outs stay a single crossing on the least-loaded shard.
  constexpr size_t kMinChunk = 16;
  const std::vector<size_t> targets =
      ShardsWithRole(EngineType::kCompute, roles_.size());  // Exclude none.
  const size_t chunks =
      targets.size() <= 1
          ? 1
          : std::min(targets.size(), std::max<size_t>(1, tasks.size() / kMinChunk));
  if (chunks <= 1) {
    const size_t shard = PickShard(EngineType::kCompute, compute_queue_);
    return compute_queue_.PushBatch(std::move(tasks), shard, urgent);
  }
  const size_t per_chunk = (tasks.size() + chunks - 1) / chunks;
  bool ok = true;
  size_t target = 0;
  for (size_t begin = 0; begin < tasks.size(); begin += per_chunk) {
    const size_t end = std::min(begin + per_chunk, tasks.size());
    std::vector<ComputeTask> chunk(std::make_move_iterator(tasks.begin() + begin),
                                   std::make_move_iterator(tasks.begin() + end));
    ok = compute_queue_.PushBatch(std::move(chunk), targets[target++ % targets.size()], urgent) &&
         ok;
  }
  return ok;
}

bool WorkerSet::SubmitComm(CommTask task) {
  task.enqueue_time_us = dbase::MonotonicClock::Get()->NowMicros();
  const bool urgent = TaskIsUrgent(task.control);
  const size_t shard = PickShard(EngineType::kCommunication, comm_queue_);
  return comm_queue_.PushToShard(shard, std::move(task), urgent);
}

bool WorkerSet::ShiftWorkerToCompute() {
  // Find a communication worker to relabel, keeping at least one.
  if (comm_workers() <= 1) {
    return false;
  }
  for (size_t i = 0; i < roles_.size(); ++i) {
    EngineType expected = EngineType::kCommunication;
    if (roles_[i]->compare_exchange_strong(expected, EngineType::kCompute)) {
      // Comm tasks queued on the departed shard would otherwise wait for a
      // sibling's idle steal; hand them to workers still doing comm.
      comm_queue_.RehomeShard(i, ShardsWithRole(EngineType::kCommunication, i));
      comm_queue_.Wake(i);  // The worker may be parked on its comm shard.
      return true;
    }
  }
  return false;
}

bool WorkerSet::ShiftWorkerToComm() {
  if (compute_workers() <= 1) {
    return false;
  }
  for (size_t i = 0; i < roles_.size(); ++i) {
    EngineType expected = EngineType::kCompute;
    if (roles_[i]->compare_exchange_strong(expected, EngineType::kCommunication)) {
      compute_queue_.RehomeShard(i, ShardsWithRole(EngineType::kCompute, i));
      compute_queue_.Wake(i);
      return true;
    }
  }
  return false;
}

int WorkerSet::ShiftWorkers(int n) {
  int moved = 0;
  while (n > 0 && ShiftWorkerToCompute()) {
    ++moved;
    --n;
  }
  while (n < 0 && ShiftWorkerToComm()) {
    --moved;
    ++n;
  }
  return moved;
}

int WorkerSet::compute_workers() const {
  int count = 0;
  for (const auto& role : roles_) {
    if (role->load(std::memory_order_relaxed) == EngineType::kCompute) {
      ++count;
    }
  }
  return count;
}

int WorkerSet::comm_workers() const { return static_cast<int>(roles_.size()) - compute_workers(); }

dpolicy::ElasticitySignals WorkerSet::Signals() const {
  dpolicy::ElasticitySignals signals;
  // One pass over the roles; comm is derived so the split always sums to
  // the pool size even when a shift lands mid-scan.
  signals.compute_workers = compute_workers();
  signals.comm_workers = static_cast<int>(roles_.size()) - signals.compute_workers;
  signals.compute_backlog = compute_queue_.Size();
  signals.comm_backlog = comm_queue_.Size();
  signals.interactive_compute_backlog = compute_queue_.UrgentSize();
  signals.interactive_comm_backlog = comm_queue_.UrgentSize();
  signals.comm_inflight =
      static_cast<double>(std::max<int64_t>(0, comm_inflight_.load(std::memory_order_relaxed)));
  signals.comm_parallelism = config_.comm_parallelism;
  return signals;
}

EngineStats WorkerSet::Stats() const {
  EngineStats stats;
  stats.compute_tasks = compute_done_.load(std::memory_order_relaxed);
  stats.comm_tasks = comm_done_.load(std::memory_order_relaxed);
  stats.compute_aborted = compute_aborted_.load(std::memory_order_relaxed);
  stats.comm_aborted = comm_aborted_.load(std::memory_order_relaxed);
  stats.compute_queue_len = compute_queue_.Size();
  stats.comm_queue_len = comm_queue_.Size();
  stats.comm_inflight = static_cast<uint64_t>(
      std::max<int64_t>(0, comm_inflight_.load(std::memory_order_relaxed)));
  stats.compute_workers = compute_workers();
  stats.comm_workers = comm_workers();
  stats.compute_shard_depths.reserve(compute_queue_.shard_count());
  stats.comm_shard_depths.reserve(comm_queue_.shard_count());
  for (size_t i = 0; i < compute_queue_.shard_count(); ++i) {
    stats.compute_shard_depths.push_back(compute_queue_.ShardSize(i));
  }
  for (size_t i = 0; i < comm_queue_.shard_count(); ++i) {
    stats.comm_shard_depths.push_back(comm_queue_.ShardSize(i));
  }
  stats.compute_steals = compute_queue_.total_stolen();
  stats.comm_steals = comm_queue_.total_stolen();
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    stats.compute_wait_p50_us = compute_wait_us_.ApproxPercentile(50);
    stats.compute_wait_p99_us = compute_wait_us_.ApproxPercentile(99);
    stats.comm_wait_p50_us = comm_wait_us_.ApproxPercentile(50);
    stats.comm_wait_p99_us = comm_wait_us_.ApproxPercentile(99);
  }
  return stats;
}

void WorkerSet::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;
  }
  compute_queue_.Close();
  comm_queue_.Close();
  for (auto& worker : workers_) {
    worker.Join();
  }
}

void WorkerSet::RunComputeTask(ComputeTask task) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  {
    const dbase::Micros wait = now - task.enqueue_time_us;
    std::lock_guard<std::mutex> lock(wait_mu_);
    compute_wait_us_.Add(static_cast<uint64_t>(std::max<dbase::Micros>(0, wait)));
  }
  SandboxOptions options = task.options;
  // A forked instance is counted on its control before the dequeue check
  // and until just before its report, so a stop leaves the end to it.
  const bool forked =
      task.control != nullptr && sandbox_->backend() == IsolationBackend::kProcess;
  if (forked) {
    task.control->EnterForkedRun();
  }
  if (task.control != nullptr) {
    // Dead invocation: drop the task at the dequeue seam — no sandbox, no
    // binary load. This is what makes Cancel() stop a fan-out mid-flight.
    const dbase::Status dead = task.control->RetireStatus(now);
    if (!dead.ok()) {
      if (forked) {
        task.control->ExitForkedRun();
      }
      task.control->CountAborted();
      compute_aborted_.fetch_add(1, std::memory_order_relaxed);
      if (task.warm != nullptr) {
        // The warm sandbox never ran — hand it straight back so the pool
        // can scrub the marshalled inputs and re-shelf it.
        if (sandbox_pool_ != nullptr) {
          sandbox_pool_->Release(std::move(task.warm));
        }
        task.warm.reset();
      }
      if (task.done) {
        ExecOutcome outcome;
        outcome.status = dead;
        task.done(std::move(outcome));
      }
      return;
    }
    task.control->MarkFirstRun(now);
    task.control->CountLaunched();
    options.cancel_flag = task.control->stop_flag();
    if (task.control->deadline_us() > 0) {
      // The invocation deadline clamps the per-function timeout so the
      // sandbox preempts at whichever comes first.
      const dbase::Micros remaining = task.control->deadline_us() - now;
      const dbase::Micros spec_timeout =
          options.timeout_us > 0 ? options.timeout_us : task.spec.timeout_us;
      options.timeout_us =
          spec_timeout > 0 ? std::min(spec_timeout, remaining) : remaining;
    }
  }
  if (FaultInjector::Get().ShouldFire(FaultPoint::kTransientResourceExhausted)) {
    // Injected transient: the sandbox never runs; the dispatcher's retry
    // path is expected to absorb it. The warm lease goes straight back.
    if (task.warm != nullptr && sandbox_pool_ != nullptr) {
      sandbox_pool_->Release(std::move(task.warm));
    }
    task.warm.reset();
    compute_done_.fetch_add(1, std::memory_order_relaxed);
    if (forked) {
      task.control->ExitForkedRun();
    }
    if (task.done) {
      ExecOutcome outcome;
      outcome.failure = dpolicy::FailureKind::kResourceExhausted;
      outcome.status = dbase::ResourceExhausted(dbase::StrFormat(
          "injected transient fault launching '%s'", task.spec.name.c_str()));
      task.done(std::move(outcome));
    }
    return;
  }
  ExecOutcome outcome;
  if (task.warm != nullptr) {
    // Pool hit: execute on the pre-warmed sandbox (inputs are already in
    // its context) and return it for scrub + re-shelf.
    if (task.control != nullptr) {
      task.control->CountPoolHit();
    }
    outcome = task.warm->Execute(options);
    if (outcome.failure == dpolicy::FailureKind::kPoolChildLost) {
      // The shelf lied: the template child died between fill and dispatch.
      // The inputs are still marshalled in the warm context, so recover
      // with a cold fork over that same context before the pool scrubs it
      // on Release. prewarmed stays set — the binary was loaded at fill.
      SandboxOptions cold = options;
      cold.prewarmed = true;
      outcome = sandbox_->Execute(task.spec, *task.warm->context(), cold);
      outcome.timings.pool_hit = false;
      if (sandbox_pool_ != nullptr) {
        sandbox_pool_->CountChildLost();
      }
    }
    if (sandbox_pool_ != nullptr) {
      sandbox_pool_->Release(std::move(task.warm));
    }
    task.warm.reset();
  } else {
    // Cold path: the context is this task's own — pin it so the read-back
    // can alias its region instead of copying outputs out.
    options.context_keepalive = task.context;
    outcome = sandbox_->Execute(task.spec, *task.context, options);
  }
  compute_done_.fetch_add(1, std::memory_order_relaxed);
  if (forked) {
    task.control->ExitForkedRun();
  }
  if (task.done) {
    task.done(std::move(outcome));
  }
}

void WorkerSet::StartCommTask(CommTask task, std::vector<InFlight>* inflight) {
  comm_done_.fetch_add(1, std::memory_order_relaxed);
  {
    const dbase::Micros wait =
        dbase::MonotonicClock::Get()->NowMicros() - task.enqueue_time_us;
    std::lock_guard<std::mutex> lock(wait_mu_);
    comm_wait_us_.Add(static_cast<uint64_t>(std::max<dbase::Micros>(0, wait)));
  }
  if (task.control != nullptr &&
      !task.control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()).ok()) {
    // Dead invocation: skip the mesh call and its modelled latency. The
    // response content never reaches a client — the dispatcher drops late
    // completions of a finished invocation.
    comm_aborted_.fetch_add(1, std::memory_order_relaxed);
    if (task.done) {
      task.done(dhttp::HttpResponse::Make(499, "Client Closed Request", ""), 0);
    }
    return;
  }
  CommCallResult call = task.handler ? task.handler(*mesh_, task.raw_request)
                                     : ExecuteHttpFunction(*mesh_, task.raw_request);
  InFlight pending;
  pending.response = std::move(call.response);
  pending.latency_us = call.latency_us;
  pending.done = std::move(task.done);
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  pending.ready_at_us = sleep_latency_.load(std::memory_order_relaxed)
                            ? now + call.latency_us
                            : now;
  inflight->push_back(std::move(pending));
  comm_inflight_.fetch_add(1, std::memory_order_relaxed);
}

void WorkerSet::CompleteDue(std::vector<InFlight>* inflight, dbase::Micros now) {
  for (size_t i = 0; i < inflight->size();) {
    if ((*inflight)[i].ready_at_us <= now) {
      InFlight item = std::move((*inflight)[i]);
      (*inflight)[i] = std::move(inflight->back());
      inflight->pop_back();
      comm_inflight_.fetch_sub(1, std::memory_order_relaxed);
      if (item.done) {
        item.done(std::move(item.response), item.latency_us);
      }
    } else {
      ++i;
    }
  }
}

void WorkerSet::WorkerLoop(int index) {
  // This worker's home shard in both queues. Pops hit the shard first and
  // steal from siblings only when it is empty.
  const size_t shard = static_cast<size_t>(index);
  const size_t budget = static_cast<size_t>(std::max(1, config_.comm_parallelism));
  // Pending comm completions owned by this worker — the cooperative
  // runtime's outstanding network operations. They stay with the worker
  // across role shifts: the green-thread budget is per worker.
  std::vector<InFlight> inflight;

  while (true) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    CompleteDue(&inflight, now);

    if (shutdown_.load(std::memory_order_relaxed)) {
      // Finish everything still queued, complete held calls without their
      // latency, then exit once idle.
      bool did_work = false;
      if (auto task = comm_queue_.TryPop(shard)) {
        StartCommTask(std::move(*task), &inflight);
        did_work = true;
      }
      if (auto task = compute_queue_.TryPop(shard)) {
        RunComputeTask(std::move(*task));
        did_work = true;
      }
      if (!inflight.empty()) {
        CompleteDue(&inflight, INT64_MAX);
        did_work = true;
      }
      if (!did_work && comm_queue_.Size() == 0 && compute_queue_.Size() == 0) {
        return;
      }
      continue;
    }

    // The one wait of this pass: until a task arrives on the role's home
    // shard, the nearest held completion is due, or the idle tick passes
    // (the tick lets a push parked behind a busy sibling be stolen). A
    // role shift cuts it short through the queue's Wake().
    dbase::Micros wait_us = kIdleTickUs;
    for (const auto& item : inflight) {
      wait_us = std::min(wait_us, item.ready_at_us - now);
    }
    if (roles_[shard]->load(std::memory_order_relaxed) == EngineType::kCompute) {
      if (auto task = compute_queue_.PopWithTimeout(shard, wait_us)) {
        RunComputeTask(std::move(*task));
      }
    } else if (inflight.size() < budget) {
      if (auto task = comm_queue_.PopWithTimeout(shard, wait_us)) {
        StartCommTask(std::move(*task), &inflight);
      }
    } else {
      // At the green-thread budget nothing may be popped until a held
      // call completes and frees a slot.
      std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
    }
  }
}

}  // namespace dandelion
