#include "src/runtime/engine.h"

#include <sys/prctl.h>

#include <algorithm>
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

}  // namespace

WorkerSet::WorkerSet(Config config, dhttp::ServiceMesh* mesh)
    : config_(config),
      mesh_(mesh),
      sandbox_(CreateSandboxExecutor(config.backend)) {
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

bool WorkerSet::SubmitComputeBatch(std::vector<ComputeTask> tasks) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  for (auto& task : tasks) {
    task.enqueue_time_us = now;
  }
  // One fan-out belongs to one invocation, so the whole batch shares a lane.
  const bool urgent = tasks.empty() || TaskIsUrgent(tasks.front().control);
  return compute_queue_.PushBatch(std::move(tasks), urgent);
}

bool WorkerSet::SubmitComm(CommTask task) {
  task.enqueue_time_us = dbase::MonotonicClock::Get()->NowMicros();
  const bool urgent = TaskIsUrgent(task.control);
  return comm_queue_.Push(std::move(task), urgent);
}

bool WorkerSet::ShiftWorkerToCompute() {
  return ShiftOneWorker(EngineType::kCommunication, EngineType::kCompute);
}

bool WorkerSet::ShiftWorkerToComm() {
  return ShiftOneWorker(EngineType::kCompute, EngineType::kCommunication);
}

bool WorkerSet::ShiftOneWorker(EngineType from, EngineType to) {
  if ((from == EngineType::kCompute ? compute_workers() : comm_workers()) <= 1) {
    return false;
  }
  for (auto& role : roles_) {
    EngineType expected = from;
    if (role->compare_exchange_strong(expected, to)) {
      // The worker may be parked on its old role's queue: wake that
      // queue's waiters so it re-reads its role.
      if (from == EngineType::kCompute) {
        compute_queue_.Wake();
      } else {
        comm_queue_.Wake();
      }
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
    // Dead invocation: drop the task at the dequeue seam — no sandbox is
    // created. This is what makes Cancel() stop a fan-out mid-flight.
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
      // The invocation deadline clamps the per-function timeout, which
      // registration keeps positive, so the sandbox preempts at whichever
      // comes first.
      const dbase::Micros remaining = task.control->deadline_us() - now;
      const dbase::Micros spec_timeout =
          options.timeout_us > 0 ? options.timeout_us : task.spec.timeout_us;
      options.timeout_us = std::min(spec_timeout, remaining);
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
      // on Release.
      outcome = sandbox_->Execute(task.spec, *task.warm->context(), options);
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
  // A worker's only timed wait is a held completion's due time; the
  // kernel's default 50 µs timer slack would make each one late.
  (void)prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const std::atomic<EngineType>& role = *roles_[static_cast<size_t>(index)];
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
      if (auto task = comm_queue_.TryPop()) {
        StartCommTask(std::move(*task), &inflight);
        did_work = true;
      }
      if (auto task = compute_queue_.TryPop()) {
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

    // The one wait of this pass: on the role's queue until a task arrives,
    // the nearest held completion is due, the role shifts (the shift wakes
    // the old role's queue) or the queue closes.
    std::optional<dbase::Micros> wait_us;
    for (const auto& item : inflight) {
      wait_us = std::min(wait_us.value_or(INT64_MAX), item.ready_at_us - now);
    }
    const EngineType mine = role.load(std::memory_order_relaxed);
    const auto shifted = [&] { return role.load(std::memory_order_relaxed) != mine; };
    if (mine == EngineType::kCompute) {
      if (auto task = compute_queue_.Pop(shifted, wait_us)) {
        RunComputeTask(std::move(*task));
      }
    } else if (inflight.size() < budget) {
      if (auto task = comm_queue_.Pop(shifted, wait_us)) {
        StartCommTask(std::move(*task), &inflight);
      }
    } else {
      // At the green-thread budget nothing may be popped until a held
      // call completes and frees a slot.
      std::this_thread::sleep_for(std::chrono::microseconds(*wait_us));
    }
  }
}

}  // namespace dandelion
