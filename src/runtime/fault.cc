#include "src/runtime/fault.h"

namespace dandelion {

std::string_view FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kChildCrashBeforeOutcome:
      return "child_crash_before_outcome";
    case FaultPoint::kChildCrashAfterPartialWrite:
      return "child_crash_after_partial_write";
    case FaultPoint::kChildForbiddenSyscall:
      return "child_forbidden_syscall";
    case FaultPoint::kTransientResourceExhausted:
      return "transient_resource_exhausted";
    case FaultPoint::kCount:
      break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Get() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultPoint point, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[static_cast<int>(point)];
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.plan = plan;
  if (state.plan.every_n == 0) state.plan.every_n = 1;
  state.crossings = 0;
  state.fired = 0;
}

void FaultInjector::Disarm(FaultPoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[static_cast<int>(point)];
  if (state.armed) armed_count_.fetch_sub(1, std::memory_order_relaxed);
  state.armed = false;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (PointState& state : points_) state = PointState{};
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFire(FaultPoint point) {
  // Fast path: nothing armed anywhere — one relaxed load, no lock.
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[static_cast<int>(point)];
  if (!state.armed) return false;
  ++state.crossings;
  if (state.fired >= state.plan.limit) return false;
  if (state.crossings % state.plan.every_n != 0) return false;
  ++state.fired;
  return true;
}

std::vector<FaultPointSnapshot> FaultInjector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FaultPointSnapshot> out;
  out.reserve(static_cast<int>(FaultPoint::kCount));
  for (int i = 0; i < static_cast<int>(FaultPoint::kCount); ++i) {
    const PointState& state = points_[i];
    out.push_back({static_cast<FaultPoint>(i), state.armed, state.plan, state.crossings,
                   state.fired});
  }
  return out;
}

}  // namespace dandelion
