// First-class invocation API: every composition invocation is described by
// an InvocationRequest (what to run, by when, at which priority) and
// observed through an InvocationHandle (cancel, completion state, report).
// The shared InvocationControl block threads the deadline, the cancel flag,
// and the lifecycle counters through every layer — dispatcher, engine
// queues, sandboxes — so a dead invocation stops consuming compute at the
// next seam instead of running to completion. Elasticity controls belong in
// the application-facing API itself: under overload the platform sheds or
// deprioritizes by request class instead of queueing blindly.
#ifndef SRC_RUNTIME_INVOCATION_H_
#define SRC_RUNTIME_INVOCATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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
  // hit — no fork / binary load on the critical path).
  uint64_t instances_pool_hits = 0;
  // The most recent sandbox-level failure any of this invocation's
  // instances hit (kNone when every instance completed or only functional
  // errors occurred). A successful invocation may still carry a non-kNone
  // kind here — that means a retry absorbed the failure.
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
  // first Cancel() also runs the cancel hook.
  void Cancel();
  void RequestStop(dbase::StatusCode reason);
  // How Cancel() reaches an invocation served in another process (a routed
  // invocation's serving node). Set before the control is shared.
  void set_cancel_hook(std::function<void()> hook) { cancel_hook_ = std::move(hook); }

  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }
  bool done() const;

  // OkStatus while the invocation may keep launching work. Otherwise the
  // terminal status to fail with (kCancelled / kDeadlineExceeded) — checking
  // also trips the stop flag when the deadline has newly passed, so a
  // running sibling instance sees the kill switch without a reaper hop.
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
  std::function<void()> cancel_hook_;  // Immutable once shared.
  std::atomic<bool> cancel_hook_ran_{false};
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
  // Requests cancellation: no further instances launch, queued instances
  // are dropped at dequeue, running thread-backend instances are preempted
  // cooperatively, forked instances are killed. The result callback still
  // fires (with kCancelled) exactly once.
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

}  // namespace dandelion

#endif  // SRC_RUNTIME_INVOCATION_H_
