// The elasticity policy layer (§5): core re-assignment between compute and
// communication engines expressed as explicit, pure policy objects. Each
// control-plane tick the driver — the runtime's ControlPlane or the
// discrete-event simulator — gathers an ElasticitySignals snapshot and asks
// the plugged-in ElasticityPolicy for an ElasticityDecision. Policies hold
// only their own state, take time as an input, and touch no clocks or
// threads, so the live runtime, dsim, and fake-clock unit tests execute
// literally the same decision code.
//
// Shipped policies:
//   PaperPiPolicy         — the paper's §5 controller: single queue-growth
//                           error into a PI loop, one core per tick.
//   HysteresisPolicy      — multi-core shifts sized by the per-worker
//                           pressure imbalance, with a post-shift cooldown
//                           and interactive-backlog weighting so batch
//                           floods cannot starve role shifts that
//                           interactive work needs.
//   ConcurrencyTargetPolicy — Knative-KPA logic (src/policy/kpa.h) on comm
//                           concurrency: windowed average + panic window
//                           pick a target comm-core count.
#ifndef SRC_POLICY_ELASTICITY_H_
#define SRC_POLICY_ELASTICITY_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/policy/kpa.h"

namespace dpolicy {

// One control-plane sample per tick: exactly the fields the shipped policies
// read. The runtime fills it from one WorkerSet::Signals() read plus the
// tick's clock and queue-counter deltas; dsim fills it from its virtual
// engines. compute_workers + comm_workers is the full core count.
struct ElasticitySignals {
  dbase::Micros now_us = 0;

  // Core split at snapshot time.
  int compute_workers = 0;
  int comm_workers = 0;

  // Queue growth over the last tick: arrivals minus departures, from the
  // cumulative push/pop counters of each role's one engine queue.
  double compute_growth = 0.0;
  double comm_growth = 0.0;

  // Instantaneous queue backlogs (all classes) and the interactive-lane
  // share of each (each queue's urgent-lane depth).
  uint64_t compute_backlog = 0;
  uint64_t comm_backlog = 0;
  uint64_t interactive_compute_backlog = 0;
  uint64_t interactive_comm_backlog = 0;

  // Communication requests currently in flight on comm engines (occupied
  // green threads), and the per-core green-thread budget.
  double comm_inflight = 0.0;
  int comm_parallelism = 1;

  int total_workers() const { return compute_workers + comm_workers; }
};

// What the policy wants done this tick. Drivers clamp the shift to what the
// worker set can actually move (at least one worker per role stays).
struct ElasticityDecision {
  // Cores to move comm→compute (positive) or compute→comm (negative).
  int shift_toward_compute = 0;
  // Policy-internal control signal, recorded for Fig. 8-style traces.
  double signal = 0.0;
  // ConcurrencyTargetPolicy: short-window burst detection is active.
  bool panic = false;
  // Static, human-readable cause ("cooldown", "deadband", ...).
  const char* reason = "";
};

class ElasticityPolicy {
 public:
  virtual ~ElasticityPolicy() = default;

  virtual const char* name() const = 0;
  virtual ElasticityDecision Decide(const ElasticitySignals& signals) = 0;
  virtual void Reset() {}
};

// ----------------------------------------------------------------- PaperPi

// Textbook discrete PI controller with anti-windup clamping (the §5
// controller's core; also driven standalone by unit tests).
class PiController {
 public:
  struct Gains {
    double kp = 0.5;
    double ki = 0.125;
    double integral_limit = 64.0;  // Anti-windup bound on the integral term.
  };

  PiController() : gains_() {}
  explicit PiController(Gains gains) : gains_(gains) {}

  // Feeds one error sample; returns the control signal.
  double Update(double error);
  void Reset();

  double integral() const { return integral_; }

 private:
  Gains gains_;
  double integral_ = 0.0;
};

// The paper's control plane (§5): error = compute queue growth − comm queue
// growth, PI signal, one core per tick past the threshold. Gains match the
// pre-policy-layer runtime controller exactly.
class PaperPiPolicy : public ElasticityPolicy {
 public:
  struct Options {
    PiController::Gains gains;
    double shift_threshold = 0.5;  // |signal| must exceed this to act.
  };

  PaperPiPolicy() : PaperPiPolicy(Options{}) {}
  explicit PaperPiPolicy(Options options) : options_(options), pi_(options.gains) {}

  const char* name() const override { return "paper-pi"; }
  ElasticityDecision Decide(const ElasticitySignals& signals) override;
  void Reset() override { pi_.Reset(); }

 private:
  Options options_;
  PiController pi_;
};

// -------------------------------------------------------------- Hysteresis

// Pressure-balance policy: compares per-worker pressure (queue growth plus
// weighted standing backlog) between the two roles and moves up to
// max_shift cores at once when the imbalance clears the dead band, then
// cools down. Interactive backlog is weighted above batch so a batch flood
// on one side cannot mask the shift interactive work on the other needs.
class HysteresisPolicy : public ElasticityPolicy {
 public:
  struct Options {
    // Imbalance (per-worker pressure difference) below this is noise.
    double deadband = 2.0;
    // Max cores moved by one decision.
    int max_shift = 4;
    // No further shifts for this long after a shift.
    dbase::Micros cooldown_us = 60 * dbase::kMicrosPerMilli;
    // One interactive-lane backlog item counts as this many batch items.
    double interactive_weight = 4.0;
    // Standing backlog's contribution relative to per-tick growth.
    double backlog_weight = 0.25;
  };

  HysteresisPolicy() : HysteresisPolicy(Options{}) {}
  explicit HysteresisPolicy(Options options) : options_(options) {}

  const char* name() const override { return "hysteresis"; }
  ElasticityDecision Decide(const ElasticitySignals& signals) override;
  void Reset() override { last_shift_us_ = kNever; }

 private:
  static constexpr dbase::Micros kNever = INT64_MIN / 2;

  Options options_;
  dbase::Micros last_shift_us_ = kNever;
};

// ------------------------------------------------------ ConcurrencyTarget

// Knative-KPA autoscaling applied to the comm-core allocation: the comm
// concurrency (in-flight green threads + queued comm work) normalized by
// the per-core target feeds the shared KpaAutoscaler; the desired replica
// count IS the desired comm-core count. dsim's Azure-trace pod models run
// the same KpaAutoscaler, which is what makes sim-vs-runtime parity
// assertions expressible.
class ConcurrencyTargetPolicy : public ElasticityPolicy {
 public:
  struct Options {
    KpaConfig kpa;  // kpa.target_concurrency is overridden to 1.0.
    // Target comm concurrency per comm core; <= 0 uses the snapshot's
    // comm_parallelism (one green-thread budget's worth per core).
    double per_core_target = 0.0;
    int min_comm_workers = 1;
  };

  ConcurrencyTargetPolicy() : ConcurrencyTargetPolicy(Options{}) {}
  explicit ConcurrencyTargetPolicy(Options options);

  const char* name() const override { return "concurrency-target"; }
  ElasticityDecision Decide(const ElasticitySignals& signals) override;
  void Reset() override { kpa_.Reset(); }

 private:
  Options options_;
  KpaAutoscaler kpa_;
};

// ----------------------------------------------------------------- Factory

enum class PolicyKind { kPaperPi, kHysteresis, kConcurrencyTarget };

std::string_view PolicyKindName(PolicyKind kind);
dbase::Result<PolicyKind> PolicyKindFromName(std::string_view name);

// Default-configured instance of the named policy.
std::unique_ptr<ElasticityPolicy> CreatePolicy(PolicyKind kind);

}  // namespace dpolicy

#endif  // SRC_POLICY_ELASTICITY_H_
