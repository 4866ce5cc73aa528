// The worker control plane (§5), rebuilt as a generic policy driver: every
// interval (30 ms in the paper) it gathers a multi-signal snapshot — engine
// queue growth and backlogs (per class), comm green-thread occupancy,
// dispatcher in-flight gauges, frontend admission counters, context-pool
// occupancy — and executes whatever dpolicy::ElasticityPolicy is plugged
// in. The decision logic itself lives in src/policy/ and is shared verbatim
// with the discrete-event simulator (dsim).
#ifndef SRC_RUNTIME_CONTROLLER_H_
#define SRC_RUNTIME_CONTROLLER_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/timer_service.h"
#include "src/policy/elasticity.h"
#include "src/runtime/engine.h"

namespace dandelion {

// Periodically samples a WorkerSet (plus any registered signal sources),
// runs the policy, and actuates multi-core role shifts. Decisions are
// recorded in a bounded ring buffer for tests, GET /statz, and the
// Figure 8 core-allocation traces.
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

  // Start arms a TimerService tick that runs StepOnce every interval_us;
  // Stop cancels it, waiting for a running tick to finish.
  void Start();
  void Stop();

  // One sampling step; called by the control tick, and directly by unit
  // tests for determinism.
  Decision StepOnce();

  // Registers an augmenter that fills signals the WorkerSet cannot see
  // (dispatcher gauges, frontend admission counters, pool occupancy). Runs
  // in the control tick on the timer thread; must not block. Returns an id for
  // RemoveSignalSource, so a component that dies before the control plane
  // (e.g. a replaced frontend) can withdraw its contribution.
  using SignalSource = std::function<void(dpolicy::ElasticitySignals*)>;
  uint64_t AddSignalSource(SignalSource source);
  void RemoveSignalSource(uint64_t id);

  // Registers a periodic callback driven by the same control tick, after
  // the elasticity decision (subsystems with their own policies — e.g. the
  // sandbox pool's prewarm step — share the control cadence instead of
  // spawning private timer threads). Runs in the control tick with the
  // tick's sample time; must not block.
  using Ticker = std::function<void(dbase::Micros now_us)>;
  uint64_t AddTicker(Ticker ticker);
  void RemoveTicker(uint64_t id);

  const dpolicy::ElasticityPolicy& policy() const { return *policy_; }

  // Ring-buffer contents, oldest first (at most Config::history_limit).
  std::vector<Decision> History() const;
  Summary GetSummary() const;

 private:
  WorkerSet* workers_;
  Config config_;
  std::unique_ptr<dpolicy::ElasticityPolicy> policy_;
  dbase::TimerService::Id tick_ = 0;  // 0 while stopped; Start/Stop serialize.

  // Last cumulative queue counters, for growth-rate deltas (control tick
  // plus test-driven StepOnce; not synchronized — callers serialize).
  uint64_t last_compute_pushed_ = 0;
  uint64_t last_compute_popped_ = 0;
  uint64_t last_comm_pushed_ = 0;
  uint64_t last_comm_popped_ = 0;

  mutable std::mutex mu_;
  std::deque<Decision> history_;            // Guarded by mu_; ring buffer.
  std::vector<std::pair<uint64_t, SignalSource>> sources_;  // Guarded by mu_.
  std::vector<std::pair<uint64_t, Ticker>> tickers_;        // Guarded by mu_.
  uint64_t next_source_id_ = 1;             // Guarded by mu_.
  uint64_t decisions_ = 0;                  // Guarded by mu_.
  uint64_t shifts_toward_compute_ = 0;      // Guarded by mu_.
  uint64_t shifts_toward_comm_ = 0;         // Guarded by mu_.
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_CONTROLLER_H_
