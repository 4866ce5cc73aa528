#include "src/runtime/engine.h"

#include <algorithm>

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
  if (comm_workers() == 0) {
    return false;
  }
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
  signals.comm_inflight = static_cast<double>(comm_inflight_.load(std::memory_order_relaxed));
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
  stats.comm_inflight = static_cast<uint64_t>(comm_inflight_.load(std::memory_order_relaxed));
  stats.compute_workers = compute_workers();
  stats.comm_workers = comm_workers();
  stats.compute_wait_p50_us = compute_wait_us_.ApproxPercentile(50);
  stats.compute_wait_p99_us = compute_wait_us_.ApproxPercentile(99);
  stats.comm_wait_p50_us = comm_wait_us_.ApproxPercentile(50);
  stats.comm_wait_p99_us = comm_wait_us_.ApproxPercentile(99);
  stats.child_cpu_p50_us = child_cpu_us_.ApproxPercentile(50);
  stats.child_cpu_p99_us = child_cpu_us_.ApproxPercentile(99);
  return stats;
}

void WorkerSet::Shutdown() {
  timers_.Close();  // No latency timer fires from here on.
  {
    // Under replies_mu_, so a reply held after this is delivered at once.
    std::lock_guard<std::mutex> lock(replies_mu_);
    if (shutdown_.exchange(true)) {
      return;
    }
    due_.splice(due_.end(), held_);
  }
  compute_queue_.Close();
  comm_queue_.Close();
  for (auto& worker : workers_) {
    worker.Join();
  }
}

void WorkerSet::RunComputeTask(ComputeTask task) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  const dbase::Micros wait = now - task.enqueue_time_us;
  compute_wait_us_.Add(static_cast<uint64_t>(std::max<dbase::Micros>(0, wait)));
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
      if (task.done) {
        ExecOutcome outcome;
        outcome.status = dead;
        task.done(std::move(outcome));
      }
      return;
    }
    task.control->MarkFirstRun(now);
    task.control->CountLaunched();
    options.control = task.control.get();
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
    // path is expected to absorb it.
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
  // A forked instance's context is this task's own: pin it so the read-back
  // can alias its region instead of copying outputs out. A thread instance
  // has none.
  options.context_keepalive = task.context;
  ExecOutcome outcome = sandbox_->Execute(task.spec, task.context.get(), options);
  compute_done_.fetch_add(1, std::memory_order_relaxed);
  if (sandbox_->backend() == IsolationBackend::kProcess) {
    child_cpu_us_.Add(static_cast<uint64_t>(outcome.timings.child_cpu_us));
  }
  if (forked) {
    task.control->ExitForkedRun();
  }
  if (task.done) {
    task.done(std::move(outcome));
  }
}

void WorkerSet::StartCommTask(CommTask task) {
  comm_done_.fetch_add(1, std::memory_order_relaxed);
  const dbase::Micros wait = dbase::MonotonicClock::Get()->NowMicros() - task.enqueue_time_us;
  comm_wait_us_.Add(static_cast<uint64_t>(std::max<dbase::Micros>(0, wait)));
  if (task.control != nullptr &&
      !task.control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()).ok()) {
    // Dead invocation: skip the mesh call and its modelled latency. The
    // response content never reaches a client — the dispatcher drops late
    // completions of a finished invocation.
    comm_aborted_.fetch_add(1, std::memory_order_relaxed);
    Deliver({dhttp::HttpResponse::Make(499, "Client Closed Request", ""), 0, std::move(task.done)});
    return;
  }
  const dbase::Micros call_start = dbase::MonotonicClock::Get()->NowMicros();
  CommCallResult call = task.handler ? task.handler(*mesh_, task.raw_request)
                                     : ExecuteHttpFunction(*mesh_, task.raw_request);
  Reply reply{std::move(call.response), call.latency_us, std::move(task.done)};
  std::unique_lock<std::mutex> lock(replies_mu_);
  if (!sleep_latency_.load(std::memory_order_relaxed) ||
      shutdown_.load(std::memory_order_relaxed)) {
    lock.unlock();
    Deliver(std::move(reply));
    return;
  }
  const auto held = held_.insert(held_.end(), std::move(reply));
  lock.unlock();
  // The modelled latency covers the service's own work (LatencyModel's
  // base_us is RTT plus service overhead), so the reply is due that long
  // after the call started, not after the call returned.
  const dbase::Micros elapsed = dbase::MonotonicClock::Get()->NowMicros() - call_start;
  // Only this timer or Shutdown, after the scope closed, moves `held`.
  timers_.AddTimer(std::max<dbase::Micros>(0, call.latency_us - elapsed), [this, held] {
    {
      std::lock_guard<std::mutex> due_lock(replies_mu_);
      due_.splice(due_.end(), held_, held);
    }
    comm_queue_.Wake();
  });
}

int64_t WorkerSet::CommBudget() const {
  return static_cast<int64_t>(std::max(1, config_.comm_parallelism)) * comm_workers();
}

bool WorkerSet::DeliverOneDue() {
  std::unique_lock<std::mutex> lock(replies_mu_);
  if (due_.empty()) {
    return false;
  }
  Reply reply = std::move(due_.front());
  due_.pop_front();
  lock.unlock();
  Deliver(std::move(reply));
  return true;
}

void WorkerSet::Deliver(Reply reply) {
  if (comm_inflight_.fetch_sub(1, std::memory_order_relaxed) >= CommBudget()) {
    // This reopens the gate: wake the waiters it turned away.
    comm_queue_.Wake();
  }
  if (reply.done) {
    reply.done(std::move(reply.response), reply.latency_us);
  }
}

void WorkerSet::WorkerLoop(int index) {
  const std::atomic<EngineType>& role = *roles_[static_cast<size_t>(index)];
  while (true) {
    if (shutdown_.load(std::memory_order_relaxed)) {
      // Deliver what is due (all held replies are), finish everything
      // still queued, then exit once idle.
      bool did_work = DeliverOneDue();
      if (auto task = comm_queue_.TryPop()) {
        comm_inflight_.fetch_add(1, std::memory_order_relaxed);
        StartCommTask(std::move(*task));
        did_work = true;
      }
      if (auto task = compute_queue_.TryPop()) {
        RunComputeTask(std::move(*task));
        did_work = true;
      }
      if (!did_work && comm_queue_.Size() == 0 && compute_queue_.Size() == 0) {
        return;
      }
      continue;
    }

    // The one wait of this pass, untimed: on the role's queue until a task
    // arrives, the role shifts (the shift wakes the old role's queue) or
    // the queue closes; for comm, also until a reply is due, and a task is
    // taken only into a free slot of the role's budget.
    const EngineType mine = role.load(std::memory_order_relaxed);
    const auto shifted = [&] { return role.load(std::memory_order_relaxed) != mine; };
    if (mine == EngineType::kCompute) {
      if (auto task = compute_queue_.Pop(shifted)) {
        RunComputeTask(std::move(*task));
      }
    } else if (!DeliverOneDue()) {
      const auto stop = [&] {
        std::lock_guard<std::mutex> lock(replies_mu_);
        return shifted() || !due_.empty();
      };
      const auto take_slot = [this] {
        // Counted under the queue lock, so the count never overshoots.
        if (comm_inflight_.load(std::memory_order_relaxed) >= CommBudget()) {
          return false;
        }
        comm_inflight_.fetch_add(1, std::memory_order_relaxed);
        return true;
      };
      if (auto task = comm_queue_.Pop(stop, take_slot)) {
        StartCommTask(std::move(*task));
      }
    }
  }
}

}  // namespace dandelion
