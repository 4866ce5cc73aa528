// First-class invocation API: every composition invocation is described by
// an InvocationRequest (what to run, by when, at which priority) and
// observed through an InvocationHandle (cancel, completion state, report).
// The shared InvocationControl block threads the deadline, the cancel flag,
// and the lifecycle counters through every layer — dispatcher, engine
// queues, sandboxes — so a dead invocation stops consuming compute at the
// next seam instead of running to completion. Every way an invocation is
// stopped — Cancel(), its deadline, a blocking caller giving up — goes
// through RequestStop, whose first call runs the control's one stop hook:
// the dispatcher's hook fails the invocation at once, a routed one sends
// kCancel to the serving node. Elasticity controls belong in the
// application-facing API itself: under overload the platform sheds or
// deprioritizes by request class instead of queueing blindly.
#ifndef SRC_RUNTIME_INVOCATION_H_
#define SRC_RUNTIME_INVOCATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/data.h"
#include "src/policy/retry.h"

namespace dandelion {

// Request classes, in descending urgency. Interactive work overtakes batch
// backlog in the engine queues and is what admission control protects.
enum class PriorityClass { kInteractive = 0, kBatch = 1 };
inline constexpr int kNumPriorityClasses = 2;

std::string_view PriorityClassName(PriorityClass priority);
dbase::Result<PriorityClass> PriorityClassFromName(std::string_view name);

// Everything the platform needs to know about one invocation up front.
struct InvocationRequest {
  std::string composition;
  dfunc::DataSetList args;
  // Absolute deadline on the monotonic clock (dbase::MonotonicClock),
  // 0 = none. Once passed, the invocation terminates kDeadlineExceeded and
  // launches no further instances.
  dbase::Micros deadline_us = 0;
  PriorityClass priority = PriorityClass::kInteractive;
  // 0 = assigned at submit; non-zero ids are taken verbatim (cluster
  // routing keeps one id across nodes).
  uint64_t id = 0;

  // Convenience for callers that think in relative time.
  static dbase::Micros DeadlineIn(dbase::Micros from_now_us);

  // Longest relative deadline taken from outside the process (the
  // X-Dandelion-Deadline-Ms header, a wire invoke's remaining time). A
  // corrupt or hostile value is clamped to it, so it can neither overflow
  // now+remaining nor park a deadline timer in the unreachable future.
  static constexpr dbase::Micros kMaxDeadlineInUs = 24ll * 3600 * dbase::kMicrosPerSecond;
};

// Terminal and transient lifecycle states.
enum class InvocationPhase {
  kPending,   // Submitted; no instance has executed yet.
  kRunning,   // At least one instance reached an engine.
  kSucceeded,
  kFailed,
  kCancelled,
  kDeadlineExceeded,
};

std::string_view InvocationPhaseName(InvocationPhase phase);

// Snapshot of one invocation's lifecycle, readable at any time.
struct InvocationReport {
  uint64_t id = 0;
  PriorityClass priority = PriorityClass::kInteractive;
  InvocationPhase phase = InvocationPhase::kPending;
  dbase::Micros submit_time_us = 0;
  // Submit → first instance executing. 0 until then (and forever for an
  // invocation that never reached an engine).
  dbase::Micros queue_time_us = 0;
  // Submit → terminal. 0 while in flight.
  dbase::Micros run_time_us = 0;
  // Compute instances that actually started executing in a sandbox.
  uint64_t instances_launched = 0;
  // Compute instances dequeued after the invocation died — dropped without
  // executing. launched + aborted ≤ instances built by the dispatcher.
  uint64_t instances_aborted = 0;
  // Of the launched instances, how many ran on a pre-warmed sandbox (pool
  // hit — no fork on the critical path).
  uint64_t instances_pool_hits = 0;
  // The most recent sandbox-level failure any of this invocation's
  // instances hit (kNone when every instance completed or only functional
  // errors occurred). A successful invocation may still carry a non-kNone
  // kind here — that means a retry absorbed the failure. A stop with a
  // forked instance running ends through that instance's kill, so the
  // kind is set when the callback fires; a thread-backend instance
  // preempted by a stop records its kind when it returns, which may be
  // after the callback.
  dpolicy::FailureKind failure_kind = dpolicy::FailureKind::kNone;
  // Instance relaunches the dispatcher's RetryPolicy granted.
  uint64_t retries_attempted = 0;
};

// The shared control block. One per external invocation; nested
// compositions launched on its behalf share it, so cancelling the root
// stops the whole tree. All members are lock-free: the flags sit on the
// engine pop path and the sandbox poll path.
class InvocationControl {
 public:
  InvocationControl(uint64_t id, PriorityClass priority, dbase::Micros deadline_us,
                    dbase::Micros submit_time_us);

  uint64_t id() const { return id_; }
  PriorityClass priority() const { return priority_; }
  dbase::Micros deadline_us() const { return deadline_us_; }
  dbase::Micros submit_time_us() const { return submit_time_us_; }

  // The cooperative kill switch sandboxes poll (FunctionCtx::cancelled()).
  const std::atomic<bool>* stop_flag() const { return &stop_; }

  // Requests termination; the first reason recorded wins. Idempotent. The
  // first call, of any reason, runs the stop hook once, on the caller's
  // thread — so a hook must not block or take an invocation's lock.
  // Cancel() is RequestStop(kCancelled).
  void Cancel() { RequestStop(dbase::StatusCode::kCancelled); }
  void RequestStop(dbase::StatusCode reason);
  // What ends the invocation once it is stopped: the dispatcher fails it
  // with the recorded reason, a router chases the serving node with
  // kCancel. Set before the control is shared.
  void set_stop_hook(std::function<void()> hook) { stop_hook_ = std::move(hook); }

  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }
  bool done() const;

  // OkStatus while the invocation may keep launching work. Otherwise the
  // terminal status to fail with (kCancelled / kDeadlineExceeded) — checking
  // also trips the stop flag (and so the stop hook) when the deadline has
  // newly passed, so a running sibling instance sees the kill switch
  // without waiting for the deadline timer.
  dbase::Status RetireStatus(dbase::Micros now_us);

  // Lifecycle bookkeeping (set-once semantics where it matters).
  void MarkFirstRun(dbase::Micros now_us);
  // Terminal phase from the invocation's final status.
  void MarkDone(const dbase::Status& outcome, dbase::Micros now_us);
  void CountLaunched() { instances_launched_.fetch_add(1, std::memory_order_relaxed); }
  void CountAborted() { instances_aborted_.fetch_add(1, std::memory_order_relaxed); }
  void CountPoolHit() { instances_pool_hits_.fetch_add(1, std::memory_order_relaxed); }
  // Records a sandbox-level failure kind (last writer wins — enough for
  // the report's "what went wrong" single field).
  void NoteFailure(dpolicy::FailureKind kind) {
    failure_kind_.store(static_cast<int>(kind), std::memory_order_relaxed);
  }
  void CountRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }

  // Forked instances between their dequeue check and their report. A
  // stop kills each within a stop-check slice, and its report, carrying
  // the kill's failure kind, ends the invocation; so the dispatcher's stop
  // hook leaves the end to it while any is counted. seq_cst with the stop
  // flag: a stop either finds an instance counted or the instance's
  // dequeue check finds the stop.
  void EnterForkedRun() { forked_running_.fetch_add(1); }
  void ExitForkedRun() { forked_running_.fetch_sub(1); }
  bool forked_running() const { return forked_running_.load() > 0; }

  InvocationReport Report() const;

 private:
  const uint64_t id_;
  const PriorityClass priority_;
  const dbase::Micros deadline_us_;
  const dbase::Micros submit_time_us_;

  std::atomic<bool> stop_{false};
  // StatusCode of the stop reason; only meaningful after stop_ is set.
  std::atomic<int> stop_reason_{0};
  std::atomic<int> phase_{static_cast<int>(InvocationPhase::kPending)};
  std::atomic<dbase::Micros> first_run_us_{0};
  std::atomic<dbase::Micros> finish_us_{0};
  std::atomic<uint64_t> instances_launched_{0};
  std::atomic<uint64_t> instances_aborted_{0};
  std::atomic<uint64_t> instances_pool_hits_{0};
  std::atomic<int> failure_kind_{static_cast<int>(dpolicy::FailureKind::kNone)};
  std::atomic<uint64_t> retries_{0};
  std::atomic<int> forked_running_{0};
  std::function<void()> stop_hook_;  // Immutable once shared.
};

// The caller's view of an in-flight invocation. Cheap to copy; an empty
// handle (default-constructed) is valid() == false.
class InvocationHandle {
 public:
  InvocationHandle() = default;
  explicit InvocationHandle(std::shared_ptr<InvocationControl> control)
      : control_(std::move(control)) {}

  bool valid() const { return control_ != nullptr; }
  uint64_t id() const { return valid() ? control_->id() : 0; }
  // Requests cancellation: the result callback fires (with kCancelled)
  // exactly once, promptly, even while the invocation is parked on a comm
  // call; no further instances launch, queued instances are dropped at
  // dequeue, running thread-backend instances are preempted cooperatively,
  // forked instances are killed. A no-op once the platform is gone.
  void Cancel() const {
    if (valid()) {
      control_->Cancel();
    }
  }
  bool done() const { return valid() && control_->done(); }
  InvocationReport Report() const {
    return valid() ? control_->Report() : InvocationReport{};
  }
  const std::shared_ptr<InvocationControl>& control() const { return control_; }

 private:
  std::shared_ptr<InvocationControl> control_;
};

// The blocking wrappers' one wait (Dispatcher::Invoke, Cluster::Invoke): a
// one-shot slot the invocation's callback fills. Held by shared_ptr, since
// the callback may still fire after the waiter gave up.
template <typename T>
class BlockingWait {
 public:
  // The invocation's callback: thread-safe, called at most once.
  void Set(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    value_ = std::move(value);
    cv_.notify_all();
  }

  // Waits for Set() until the monotonic `until_us`. On timeout the
  // invocation is stopped with `reason` and nullopt returned.
  std::optional<T> Await(const InvocationHandle& handle, dbase::Micros until_us,
                         dbase::StatusCode reason) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!value_.has_value()) {
      const dbase::Micros remaining = until_us - dbase::MonotonicClock::Get()->NowMicros();
      if (remaining <= 0) {
        lock.unlock();
        if (handle.valid()) {
          handle.control()->RequestStop(reason);
        }
        return std::nullopt;
      }
      // Bounded, so a far-off `until_us` cannot overflow the conversion.
      cv_.wait_for(lock, std::chrono::microseconds(
                             std::min<dbase::Micros>(remaining, 3600 * dbase::kMicrosPerSecond)));
    }
    return std::move(value_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<T> value_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_INVOCATION_H_
