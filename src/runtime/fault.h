// Deterministic fault injection for the sandbox/dispatch path. Tests and
// chaos benches arm a FaultPoint with a plan (fire every Nth crossing, up
// to a limit); the runtime consults ShouldFire() at fixed seams. Disabled
// points cost one relaxed atomic load — the harness is compiled in
// unconditionally so the fault surface tested in CI is the surface that
// ships. The probabilistic-model-checking elasticity line of work (see
// PAPERS.md) motivates this: degradation behaviour should be *drivable*
// and verifiable, not incidental.
#ifndef SRC_RUNTIME_FAULT_H_
#define SRC_RUNTIME_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace dandelion {

enum class FaultPoint {
  // Cold/warm process child calls __builtin_trap() before running the body
  // (the classic "sandbox crashed, no outcome" case; retry-safe).
  kChildCrashBeforeOutcome = 0,
  // Child runs the body, tears the outcome header mid-write, then traps —
  // exercises the parent's torn-outcome handling and proves retries
  // re-marshal instead of trusting a corrupted context.
  kChildCrashAfterPartialWrite,
  // Jailed child attempts a forbidden syscall (openat) — drives kJailKill
  // without needing a hostile function registered.
  kChildForbiddenSyscall,
  // Pooled template child is killed between fill and dispatch, so the
  // go-channel send at Execute() finds it gone — drives kPoolChildLost and
  // the transparent cold-fork fallback.
  kPoolTemplateDeath,
  // Engine synthesizes a transient kResourceExhausted instead of running
  // the task — drives the retry path without touching any child.
  kTransientResourceExhausted,
  kCount,
};

std::string_view FaultPointName(FaultPoint point);

struct FaultPlan {
  // Fire on every Nth crossing (1 = every time, 100 = 1% of crossings).
  uint64_t every_n = 1;
  // Stop firing after this many injections (UINT64_MAX = unbounded).
  uint64_t limit = UINT64_MAX;
};

struct FaultPointSnapshot {
  FaultPoint point = FaultPoint::kCount;
  bool armed = false;
  FaultPlan plan;
  uint64_t crossings = 0;
  uint64_t fired = 0;
};

// Process-wide singleton. Arm/Disarm are test-path; ShouldFire is the hot
// hook. The enabled_ fast path means a production run with no faults armed
// pays one relaxed load per injection point.
class FaultInjector {
 public:
  static FaultInjector& Get();

  void Arm(FaultPoint point, FaultPlan plan = {});
  void Disarm(FaultPoint point);
  void Reset();  // Disarm everything and zero all counters.

  // Counts a crossing of `point`; returns true when the armed plan says
  // this crossing faults. Exact (mutex-counted) when any point is armed.
  bool ShouldFire(FaultPoint point);

  std::vector<FaultPointSnapshot> Snapshot() const;

 private:
  FaultInjector() = default;

  struct PointState {
    bool armed = false;
    FaultPlan plan;
    uint64_t crossings = 0;
    uint64_t fired = 0;
  };

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  PointState points_[static_cast<int>(FaultPoint::kCount)];
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_FAULT_H_
