#include "src/runtime/invocation.h"

#include <sys/eventfd.h>
#include <unistd.h>

namespace dandelion {

std::string_view PriorityClassName(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive:
      return "interactive";
    case PriorityClass::kBatch:
      return "batch";
  }
  return "?";
}

dbase::Result<PriorityClass> PriorityClassFromName(std::string_view name) {
  if (name == "interactive") {
    return PriorityClass::kInteractive;
  }
  if (name == "batch") {
    return PriorityClass::kBatch;
  }
  return dbase::InvalidArgument("unknown priority class: " + std::string(name));
}

std::string_view InvocationPhaseName(InvocationPhase phase) {
  switch (phase) {
    case InvocationPhase::kPending:
      return "pending";
    case InvocationPhase::kRunning:
      return "running";
    case InvocationPhase::kSucceeded:
      return "succeeded";
    case InvocationPhase::kFailed:
      return "failed";
    case InvocationPhase::kCancelled:
      return "cancelled";
    case InvocationPhase::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "?";
}

dbase::Micros InvocationRequest::DeadlineIn(dbase::Micros from_now_us) {
  return dbase::MonotonicClock::Get()->NowMicros() + from_now_us;
}

InvocationControl::InvocationControl(uint64_t id, PriorityClass priority,
                                     dbase::Micros deadline_us, dbase::Micros submit_time_us)
    : id_(id), priority_(priority), deadline_us_(deadline_us), submit_time_us_(submit_time_us) {}

InvocationControl::~InvocationControl() {
  if (const int fd = stop_fd_.load(); fd >= 0) {
    close(fd);
  }
}

namespace {

// Leaves the stop fd readable for good: nothing ever reads it.
void MarkStopped(int fd) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(fd, &one, sizeof(one));
}

}  // namespace

int InvocationControl::StopFd() {
  if (const int fd = stop_fd_.load(); fd >= 0) {
    return fd;
  }
  const int made = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (made < 0) {
    return -1;
  }
  int expected = -1;
  if (!stop_fd_.compare_exchange_strong(expected, made)) {
    close(made);  // Another waiter published first.
    return expected;
  }
  // seq_cst against RequestStop's flag exchange and fd load: a stop that
  // raced the publish either sees the fd or is seen here.
  if (stop_.load()) {
    MarkStopped(made);
  }
  return made;
}

void InvocationControl::RequestStop(dbase::StatusCode reason) {
  // First reason wins: record it before publishing the flag so a reader
  // that observes stop_ always sees a reason.
  int expected = 0;
  stop_reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_relaxed);
  // The flag's exchange is the once-guard of the fd's write and the hook.
  if (!stop_.exchange(true)) {
    if (const int fd = stop_fd_.load(); fd >= 0) {
      MarkStopped(fd);
    }
    if (stop_hook_) {
      stop_hook_();
    }
  }
}

bool InvocationControl::done() const {
  const auto phase = static_cast<InvocationPhase>(phase_.load(std::memory_order_acquire));
  return phase != InvocationPhase::kPending && phase != InvocationPhase::kRunning;
}

dbase::Status InvocationControl::RetireStatus(dbase::Micros now_us) {
  if (stop_.load()) {
    if (stop_reason() == dbase::StatusCode::kDeadlineExceeded) {
      return dbase::DeadlineExceeded("invocation deadline exceeded");
    }
    return dbase::Cancelled("invocation cancelled");
  }
  if (deadline_us_ > 0 && now_us >= deadline_us_) {
    // Trip the kill switch so running siblings stop cooperatively too.
    RequestStop(dbase::StatusCode::kDeadlineExceeded);
    return dbase::DeadlineExceeded("invocation deadline exceeded");
  }
  return dbase::OkStatus();
}

void InvocationControl::MarkFirstRun(dbase::Micros now_us) {
  dbase::Micros expected = 0;
  first_run_us_.compare_exchange_strong(expected, now_us, std::memory_order_relaxed);
  int phase_expected = static_cast<int>(InvocationPhase::kPending);
  phase_.compare_exchange_strong(phase_expected, static_cast<int>(InvocationPhase::kRunning),
                                 std::memory_order_release);
}

void InvocationControl::MarkDone(const dbase::Status& outcome, dbase::Micros now_us) {
  InvocationPhase phase = InvocationPhase::kSucceeded;
  switch (outcome.code()) {
    case dbase::StatusCode::kOk:
      break;
    case dbase::StatusCode::kCancelled:
      phase = InvocationPhase::kCancelled;
      break;
    case dbase::StatusCode::kDeadlineExceeded:
      phase = InvocationPhase::kDeadlineExceeded;
      break;
    default:
      phase = InvocationPhase::kFailed;
  }
  dbase::Micros expected = 0;
  finish_us_.compare_exchange_strong(expected, now_us, std::memory_order_relaxed);
  phase_.store(static_cast<int>(phase), std::memory_order_release);
}

InvocationReport InvocationControl::Report() const {
  InvocationReport report;
  report.id = id_;
  report.priority = priority_;
  report.phase = static_cast<InvocationPhase>(phase_.load(std::memory_order_acquire));
  report.submit_time_us = submit_time_us_;
  const dbase::Micros first_run = first_run_us_.load(std::memory_order_relaxed);
  if (first_run > 0) {
    report.queue_time_us = first_run - submit_time_us_;
  }
  const dbase::Micros finish = finish_us_.load(std::memory_order_relaxed);
  if (finish > 0) {
    report.run_time_us = finish - submit_time_us_;
  }
  report.instances_launched = instances_launched_.load(std::memory_order_relaxed);
  report.instances_aborted = instances_aborted_.load(std::memory_order_relaxed);
  report.failure_kind =
      static_cast<dpolicy::FailureKind>(failure_kind_.load(std::memory_order_relaxed));
  report.retries_attempted = retries_.load(std::memory_order_relaxed);
  return report;
}

}  // namespace dandelion
