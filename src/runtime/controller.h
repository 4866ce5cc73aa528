// The worker control plane (§5), rebuilt as a generic policy driver: every
// interval (30 ms in the paper) it takes one engine sample — the core
// split, queue growth and backlogs (per class), comm green-thread
// occupancy — and executes whatever dpolicy::ElasticityPolicy is plugged
// in. The decision logic itself lives in src/policy/ and is shared verbatim
// with the discrete-event simulator (dsim).
#ifndef SRC_RUNTIME_CONTROLLER_H_
#define SRC_RUNTIME_CONTROLLER_H_

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/policy/elasticity.h"
#include "src/runtime/engine.h"

namespace dandelion {

// Periodically samples a WorkerSet, runs the policy, and actuates
// multi-core role shifts. Decisions are recorded in a bounded ring buffer
// for tests, GET /statz, and the Figure 8 core-allocation traces.
class ControlPlane {
 public:
  struct Config {
    dbase::Micros interval_us = 30 * dbase::kMicrosPerMilli;  // Paper: 30 ms.
    // Cap on retained decisions: the history is a ring buffer, so
    // long-running servers hold the most recent `history_limit` decisions
    // instead of growing without bound.
    size_t history_limit = 4096;
  };

  struct Decision {
    dbase::Micros time_us = 0;
    dpolicy::ElasticitySignals signals;
    dpolicy::ElasticityDecision action;
    // Cores actually moved (signed toward compute); may be smaller than
    // the policy asked for when a role is at its minimum.
    int shifted = 0;
    // Post-decision split.
    int compute_workers = 0;
    int comm_workers = 0;
  };

  // Cheap aggregate view for GET /statz.
  struct Summary {
    const char* policy_name = "";
    uint64_t decisions = 0;
    uint64_t shifts_toward_compute = 0;  // Cores moved, cumulative.
    uint64_t shifts_toward_comm = 0;
    Decision last;  // Meaningful when decisions > 0.
  };

  ControlPlane(WorkerSet* workers, std::unique_ptr<dpolicy::ElasticityPolicy> policy,
               Config config);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Start arms a tick on the process reactor that runs StepOnce every
  // interval_us, counted from the end of the previous tick; Stop cancels
  // it, waiting for a running tick to finish.
  void Start();
  void Stop();

  // One sampling step; called by the control tick, and directly by unit
  // tests for determinism.
  Decision StepOnce();

  const dpolicy::ElasticityPolicy& policy() const { return *policy_; }

  // Ring-buffer contents, oldest first (at most Config::history_limit).
  std::vector<Decision> History() const;
  Summary GetSummary() const;

 private:
  // Re-arms the tick at the end of each run.
  void ArmTick();

  WorkerSet* workers_;
  Config config_;
  std::unique_ptr<dpolicy::ElasticityPolicy> policy_;
  // The tick's timer; null while stopped. Start/Stop serialize.
  std::unique_ptr<dbase::EventLoop::Scope> tick_;

  // Last cumulative queue counters, for growth-rate deltas (control tick
  // plus test-driven StepOnce; not synchronized — callers serialize).
  uint64_t last_compute_pushed_ = 0;
  uint64_t last_compute_popped_ = 0;
  uint64_t last_comm_pushed_ = 0;
  uint64_t last_comm_popped_ = 0;

  mutable std::mutex mu_;
  std::deque<Decision> history_;            // Guarded by mu_; ring buffer.
  uint64_t decisions_ = 0;                  // Guarded by mu_.
  uint64_t shifts_toward_compute_ = 0;      // Guarded by mu_.
  uint64_t shifts_toward_comm_ = 0;         // Guarded by mu_.
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_CONTROLLER_H_
