// Tests for the elasticity policy layer (src/policy/): pure, fake-clock
// unit tests for each shipped policy — PI anti-windup, hysteresis deadband /
// cooldown / interactive weighting, KPA windows / panic / scale-to-zero —
// plus ControlPlane::StepOnce reading signals coherently while role shifts
// race it on the real WorkerSet.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/policy/elasticity.h"
#include "src/policy/kpa.h"
#include "src/policy/membership.h"
#include "src/policy/retry.h"
#include "src/runtime/controller.h"
#include "src/runtime/engine.h"

namespace {

using dbase::kMicrosPerMilli;
using dbase::kMicrosPerSecond;
using dbase::Micros;
using dpolicy::ElasticityDecision;
using dpolicy::ElasticitySignals;

// --------------------------------------------------------------------- PI

TEST(PiControllerTest, ProportionalAndIntegralTerms) {
  dpolicy::PiController::Gains gains;
  gains.kp = 1.0;
  gains.ki = 0.5;
  gains.integral_limit = 100.0;
  dpolicy::PiController pi(gains);
  EXPECT_DOUBLE_EQ(pi.Update(2.0), 2.0 + 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(pi.Update(2.0), 2.0 + 0.5 * 4.0);
  pi.Reset();
  EXPECT_DOUBLE_EQ(pi.integral(), 0.0);
}

TEST(PiControllerTest, AntiWindupClamps) {
  dpolicy::PiController::Gains gains;
  gains.kp = 0.0;
  gains.ki = 1.0;
  gains.integral_limit = 10.0;
  dpolicy::PiController pi(gains);
  for (int i = 0; i < 100; ++i) {
    pi.Update(5.0);
  }
  EXPECT_DOUBLE_EQ(pi.integral(), 10.0);
  EXPECT_DOUBLE_EQ(pi.Update(0.0), 10.0);
}

ElasticitySignals BaseSignals(Micros now, int compute = 3, int comm = 1) {
  ElasticitySignals signals;
  signals.now_us = now;
  signals.compute_workers = compute;
  signals.comm_workers = comm;
  return signals;
}

TEST(PaperPiPolicyTest, ShiftsOneCoreTowardGrowingQueue) {
  dpolicy::PaperPiPolicy::Options options;
  options.gains.kp = 1.0;
  options.gains.ki = 0.0;
  dpolicy::PaperPiPolicy policy(options);

  ElasticitySignals signals = BaseSignals(0);
  signals.compute_growth = 10.0;
  ElasticityDecision decision = policy.Decide(signals);
  EXPECT_EQ(decision.shift_toward_compute, 1);  // Never more than one.

  policy.Reset();
  signals.compute_growth = 0.0;
  signals.comm_growth = 10.0;
  decision = policy.Decide(signals);
  EXPECT_EQ(decision.shift_toward_compute, -1);
}

TEST(PaperPiPolicyTest, WithinThresholdHolds) {
  dpolicy::PaperPiPolicy policy;  // Paper gains; threshold 0.5.
  ElasticitySignals signals = BaseSignals(0);
  signals.compute_growth = 0.2;
  signals.comm_growth = 0.1;
  EXPECT_EQ(policy.Decide(signals).shift_toward_compute, 0);
}

TEST(PaperPiPolicyTest, IntegralAccumulatesSmallErrors) {
  dpolicy::PaperPiPolicy policy;  // kp=0.5 ki=0.125.
  ElasticitySignals signals = BaseSignals(0);
  signals.compute_growth = 0.6;  // Signal 0.375 on the first tick: hold.
  EXPECT_EQ(policy.Decide(signals).shift_toward_compute, 0);
  // Persistent small error integrates past the threshold.
  int shifted = 0;
  for (int i = 0; i < 10 && shifted == 0; ++i) {
    shifted = policy.Decide(signals).shift_toward_compute;
  }
  EXPECT_EQ(shifted, 1);
}

// -------------------------------------------------------------- Hysteresis

dpolicy::HysteresisPolicy::Options TestHysteresisOptions() {
  dpolicy::HysteresisPolicy::Options options;
  options.deadband = 2.0;
  options.max_shift = 4;
  options.cooldown_us = 60 * kMicrosPerMilli;
  options.interactive_weight = 4.0;
  options.backlog_weight = 1.0;
  return options;
}

TEST(HysteresisPolicyTest, MovesMultipleCoresOnLargeImbalance) {
  dpolicy::HysteresisPolicy policy(TestHysteresisOptions());
  ElasticitySignals signals = BaseSignals(0, /*compute=*/8, /*comm=*/8);
  signals.comm_backlog = 400;  // Per-comm-worker pressure 50 vs 0.
  const ElasticityDecision decision = policy.Decide(signals);
  EXPECT_EQ(decision.shift_toward_compute, -4);  // Clamped to max_shift.
}

TEST(HysteresisPolicyTest, DeadbandHoldsOnNoise) {
  dpolicy::HysteresisPolicy policy(TestHysteresisOptions());
  ElasticitySignals signals = BaseSignals(0, 4, 4);
  signals.compute_backlog = 5;
  signals.comm_backlog = 4;  // Imbalance 0.25 < deadband 2.
  EXPECT_EQ(policy.Decide(signals).shift_toward_compute, 0);
  EXPECT_STREQ(policy.Decide(signals).reason, "within deadband");
}

TEST(HysteresisPolicyTest, CooldownBlocksBackToBackShifts) {
  dpolicy::HysteresisPolicy policy(TestHysteresisOptions());
  ElasticitySignals signals = BaseSignals(0, 8, 8);
  signals.comm_backlog = 400;

  EXPECT_EQ(policy.Decide(signals).shift_toward_compute, -4);
  // 30 ms later (cooldown is 60 ms): blocked even though pressure persists.
  signals.now_us = 30 * kMicrosPerMilli;
  ElasticityDecision decision = policy.Decide(signals);
  EXPECT_EQ(decision.shift_toward_compute, 0);
  EXPECT_STREQ(decision.reason, "cooldown");
  // Past the cooldown: shifts again.
  signals.now_us = 61 * kMicrosPerMilli;
  EXPECT_EQ(policy.Decide(signals).shift_toward_compute, -4);
}

TEST(HysteresisPolicyTest, InteractiveBacklogOutweighsBatchFlood) {
  // A large batch backlog on the comm side vs a small interactive backlog
  // on the compute side: the interactive weighting must still favor the
  // shift interactive work needs (toward compute).
  dpolicy::HysteresisPolicy::Options options = TestHysteresisOptions();
  options.interactive_weight = 8.0;
  dpolicy::HysteresisPolicy policy(options);

  ElasticitySignals signals = BaseSignals(0, 4, 4);
  signals.comm_backlog = 20;  // All batch.
  signals.compute_backlog = 12;
  signals.interactive_compute_backlog = 12;  // All interactive (×8 = 96).
  const ElasticityDecision decision = policy.Decide(signals);
  EXPECT_GT(decision.shift_toward_compute, 0);
}

// ------------------------------------------------------------------- KPA

TEST(KpaAutoscalerTest, ScalesUpWithConcurrency) {
  dpolicy::KpaConfig config;
  config.target_concurrency = 1.0;
  dpolicy::KpaAutoscaler autoscaler(config);
  const Micros tick = 2 * kMicrosPerSecond;
  int replicas = 0;
  for (int i = 1; i <= 30; ++i) {
    replicas = autoscaler.Tick(i * tick, 4.0);
  }
  EXPECT_EQ(replicas, 4);
}

TEST(KpaAutoscalerTest, ScaleToZeroAfterGrace) {
  dpolicy::KpaConfig config;
  config.scale_to_zero_grace_us = 10 * kMicrosPerSecond;
  config.stable_window_us = 20 * kMicrosPerSecond;
  dpolicy::KpaAutoscaler autoscaler(config);
  const Micros tick = 2 * kMicrosPerSecond;
  Micros now = 0;
  for (int i = 0; i < 10; ++i) {
    now += tick;
    autoscaler.Tick(now, 2.0);
  }
  EXPECT_GE(autoscaler.current_replicas(), 1);
  // Traffic stops; replicas must survive the grace period, then go to zero.
  bool saw_nonzero_during_grace = false;
  for (int i = 0; i < 30; ++i) {
    now += tick;
    const int replicas = autoscaler.Tick(now, 0.0);
    if (i < 3 && replicas > 0) {
      saw_nonzero_during_grace = true;
    }
  }
  EXPECT_TRUE(saw_nonzero_during_grace);
  EXPECT_EQ(autoscaler.current_replicas(), 0);
}

TEST(KpaAutoscalerTest, PanicModeNeverScalesDown) {
  dpolicy::KpaConfig config;
  config.target_concurrency = 1.0;
  dpolicy::KpaAutoscaler autoscaler(config);
  const Micros tick = 2 * kMicrosPerSecond;
  Micros now = 0;
  // Establish a small steady state.
  for (int i = 0; i < 10; ++i) {
    now += tick;
    autoscaler.Tick(now, 1.0);
  }
  const int before = autoscaler.current_replicas();
  // Sudden burst → panic; replicas must jump and not dip while panicking.
  now += tick;
  int replicas = autoscaler.Tick(now, 12.0);
  EXPECT_GT(replicas, before);
  EXPECT_TRUE(autoscaler.in_panic_mode());
  const int burst_replicas = replicas;
  now += tick;
  replicas = autoscaler.Tick(now, 1.0);  // Burst gone, panic window active.
  EXPECT_GE(replicas, burst_replicas);
}

TEST(KpaAutoscalerTest, RespectsMaxReplicas) {
  dpolicy::KpaConfig config;
  config.max_replicas = 5;
  dpolicy::KpaAutoscaler autoscaler(config);
  EXPECT_LE(autoscaler.Tick(kMicrosPerSecond, 100.0), 5);
}

// ------------------------------------------------------ ConcurrencyTarget

dpolicy::ConcurrencyTargetPolicy::Options FastKpaOptions() {
  dpolicy::ConcurrencyTargetPolicy::Options options;
  options.kpa.stable_window_us = 120 * kMicrosPerMilli;
  options.kpa.panic_window_us = 30 * kMicrosPerMilli;
  options.kpa.max_replicas = 1024;
  options.per_core_target = 2.0;
  return options;
}

TEST(ConcurrencyTargetPolicyTest, TracksCommConcurrencyTowardTarget) {
  dpolicy::ConcurrencyTargetPolicy policy(FastKpaOptions());
  // 8 cores, 1 comm; sustained comm concurrency of 8 against a per-core
  // target of 2 wants 4 comm cores.
  Micros now = 0;
  ElasticityDecision decision;
  for (int i = 0; i < 12; ++i) {
    now += 30 * kMicrosPerMilli;
    ElasticitySignals signals = BaseSignals(now, 7, 1);
    signals.comm_inflight = 6.0;
    signals.comm_backlog = 2;
    decision = policy.Decide(signals);
  }
  EXPECT_EQ(decision.shift_toward_compute, 1 - 4);  // 1 comm core → 4.
}

TEST(ConcurrencyTargetPolicyTest, PanicWindowReactsToBurst) {
  dpolicy::ConcurrencyTargetPolicy policy(FastKpaOptions());
  Micros now = 0;
  // Quiet steady state at 1 comm core.
  for (int i = 0; i < 8; ++i) {
    now += 30 * kMicrosPerMilli;
    ElasticitySignals signals = BaseSignals(now, 7, 1);
    signals.comm_inflight = 1.0;
    policy.Decide(signals);
  }
  // Burst: short-window desire far exceeds the current allocation. The
  // panic window must trigger and the policy must ask for more comm cores
  // immediately, despite the stable window still averaging the quiet past.
  now += 30 * kMicrosPerMilli;
  ElasticitySignals burst = BaseSignals(now, 7, 1);
  burst.comm_inflight = 16.0;
  burst.comm_backlog = 24;
  const ElasticityDecision decision = policy.Decide(burst);
  EXPECT_LT(decision.shift_toward_compute, 0);
  EXPECT_TRUE(decision.panic);

  // Load vanishes while the panic window is open: no scale-down decision.
  now += 30 * kMicrosPerMilli;
  ElasticitySignals calm = BaseSignals(now, 7 + decision.shift_toward_compute,
                                       1 - decision.shift_toward_compute);
  calm.comm_inflight = 0.0;
  const ElasticityDecision hold = policy.Decide(calm);
  EXPECT_GE(hold.shift_toward_compute, 0 - 0);  // Never below current...
  EXPECT_LE(hold.shift_toward_compute, 0);      // ...and no shed while panicking.
}

TEST(ConcurrencyTargetPolicyTest, ClampsToMinCommWorkers) {
  dpolicy::ConcurrencyTargetPolicy policy(FastKpaOptions());
  Micros now = 0;
  ElasticityDecision decision;
  for (int i = 0; i < 12; ++i) {
    now += 30 * kMicrosPerMilli;
    ElasticitySignals signals = BaseSignals(now, 4, 4);
    signals.comm_inflight = 0.0;  // No comm work at all.
    decision = policy.Decide(signals);
  }
  // Desired would be 0; the policy floors at min_comm_workers == 1.
  EXPECT_EQ(decision.shift_toward_compute, 3);
}

// ----------------------------------------------------------------- Factory

TEST(PolicyFactoryTest, NamesRoundTrip) {
  for (auto kind : {dpolicy::PolicyKind::kPaperPi, dpolicy::PolicyKind::kHysteresis,
                    dpolicy::PolicyKind::kConcurrencyTarget}) {
    auto policy = dpolicy::CreatePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), dpolicy::PolicyKindName(kind));
    auto parsed = dpolicy::PolicyKindFromName(policy->name());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(dpolicy::PolicyKindFromName("nope").ok());
}

// ------------------------------------------------------------ ControlPlane

// StepOnce must read a coherent snapshot while role shifts race it: the
// recorded split always sums to the pool size, growth deltas never go wild
// (pushed/popped counters are shift-invariant), and the post-decision split
// respects the one-worker-per-role floor.
TEST(ControlPlaneTest, StepOnceCoherentAcrossConcurrentRoleShifts) {
  dhttp::ServiceMesh mesh;
  dandelion::WorkerSet::Config config;
  config.num_workers = 6;
  config.initial_comm_workers = 3;
  dandelion::WorkerSet workers(config, &mesh);
  workers.set_sleep_for_modeled_latency(false);

  // A policy that always asks for a big shift, alternating direction, so
  // the control plane itself is constantly re-labeling workers too.
  class ThrashPolicy : public dpolicy::ElasticityPolicy {
   public:
    const char* name() const override { return "thrash"; }
    dpolicy::ElasticityDecision Decide(const dpolicy::ElasticitySignals& signals) override {
      EXPECT_EQ(signals.compute_workers + signals.comm_workers, 6);
      dpolicy::ElasticityDecision decision;
      decision.shift_toward_compute = (++calls_ % 2 == 0) ? 2 : -2;
      return decision;
    }

   private:
    int calls_ = 0;
  };

  dandelion::ControlPlane control(&workers, std::make_unique<ThrashPolicy>(),
                                  dandelion::ControlPlane::Config{});

  std::atomic<bool> stop{false};
  dbase::JoiningThread shifter("shifter", [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      workers.ShiftWorkers(+1);
      workers.ShiftWorkers(-1);
    }
  });

  for (int i = 0; i < 500; ++i) {
    const auto decision = control.StepOnce();
    ASSERT_EQ(decision.signals.compute_workers + decision.signals.comm_workers, 6);
    ASSERT_EQ(decision.compute_workers + decision.comm_workers, 6);
    ASSERT_GE(decision.compute_workers, 1);
    ASSERT_GE(decision.comm_workers, 1);
    // Nothing was submitted: growth must be exactly zero no matter how the
    // counters were sampled relative to the racing shifts.
    ASSERT_DOUBLE_EQ(decision.signals.compute_growth, 0.0);
    ASSERT_DOUBLE_EQ(decision.signals.comm_growth, 0.0);
  }
  stop.store(true);
  shifter.Join();
}

TEST(WorkerSetTest, ShiftWorkersMovesMultipleAndClamps) {
  dhttp::ServiceMesh mesh;
  dandelion::WorkerSet::Config config;
  config.num_workers = 6;
  config.initial_comm_workers = 3;
  dandelion::WorkerSet workers(config, &mesh);

  EXPECT_EQ(workers.ShiftWorkers(2), 2);  // 3 comm → 1.
  EXPECT_EQ(workers.comm_workers(), 1);
  EXPECT_EQ(workers.ShiftWorkers(5), 0);  // Floor of one comm worker.
  EXPECT_EQ(workers.ShiftWorkers(-10), -4);  // 5 compute → 1.
  EXPECT_EQ(workers.compute_workers(), 1);
  EXPECT_EQ(workers.ShiftWorkers(0), 0);
}

// ------------------------------------------------------------ RetryPolicy

dpolicy::RetryOptions TestRetryOptions() {
  dpolicy::RetryOptions options;
  options.max_retries_interactive = 1;
  options.max_retries_batch = 3;
  options.backoff_base_us = 1000;
  options.backoff_multiplier = 2.0;
  options.backoff_cap_us = 100 * 1000;
  options.breaker_trip_after = 5;
  options.breaker_cooldown_us = 1 * kMicrosPerSecond;
  return options;
}

TEST(RetryPolicyTest, BudgetsDifferByPriorityClass) {
  dpolicy::RetryPolicy policy(TestRetryOptions());
  // Interactive: one relaunch, then the budget is spent.
  auto decision = policy.OnFailure("f", dpolicy::FailureKind::kCrash,
                                   /*interactive=*/true, /*attempts_so_far=*/0, 0);
  EXPECT_TRUE(decision.retry);
  decision = policy.OnFailure("f", dpolicy::FailureKind::kCrash, true, 1, 0);
  EXPECT_FALSE(decision.retry);
  EXPECT_STREQ(decision.reason, "budget exhausted");
  // Batch work can afford three.
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_TRUE(policy.OnFailure("g", dpolicy::FailureKind::kCrash, false, attempt, 0).retry);
  }
  EXPECT_FALSE(policy.OnFailure("g", dpolicy::FailureKind::kCrash, false, 3, 0).retry);
  const auto stats = policy.Stats();
  EXPECT_EQ(stats.retries_granted, 4u);
  EXPECT_EQ(stats.retries_denied_budget, 2u);
}

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  dpolicy::RetryPolicy policy(TestRetryOptions());
  EXPECT_EQ(policy.BackoffForAttempt(0), 1000);
  EXPECT_EQ(policy.BackoffForAttempt(1), 2000);
  EXPECT_EQ(policy.BackoffForAttempt(2), 4000);
  EXPECT_EQ(policy.BackoffForAttempt(10), 100 * 1000);  // Cap.
}

TEST(RetryPolicyTest, OnlyRetrySafeKindsAreRelaunched) {
  dpolicy::RetryPolicy policy(TestRetryOptions());
  // Infrastructure failures are retry-safe…
  EXPECT_TRUE(policy.OnFailure("f", dpolicy::FailureKind::kCrash, false, 0, 0).retry);
  EXPECT_TRUE(
      policy.OnFailure("f", dpolicy::FailureKind::kResourceExhausted, false, 0, 0).retry);
  // …deterministic function behaviour and client intent are not: a jail
  // kill or nonzero exit reproduces on relaunch, deadline/cancel kills were
  // asked for.
  EXPECT_FALSE(policy.OnFailure("f", dpolicy::FailureKind::kJailKill, false, 0, 0).retry);
  EXPECT_FALSE(policy.OnFailure("f", dpolicy::FailureKind::kNonzeroExit, false, 0, 0).retry);
  EXPECT_FALSE(policy.OnFailure("f", dpolicy::FailureKind::kDeadlineKill, false, 0, 0).retry);
  EXPECT_FALSE(policy.OnFailure("f", dpolicy::FailureKind::kCancelKill, false, 0, 0).retry);
  EXPECT_EQ(policy.Stats().retries_denied_kind, 4u);
}

TEST(RetryPolicyTest, DeadlineAndCancelKillsDoNotFeedTheBreaker) {
  dpolicy::RetryPolicy policy(TestRetryOptions());
  for (int i = 0; i < 20; ++i) {
    policy.OnFailure("f", dpolicy::FailureKind::kDeadlineKill, true, 0, 0);
    policy.OnFailure("f", dpolicy::FailureKind::kCancelKill, true, 0, 0);
  }
  EXPECT_TRUE(policy.Admit("f", 0).allow);
  EXPECT_EQ(policy.Stats().breaker_trips, 0u);
  EXPECT_TRUE(policy.Breakers().empty());
}

TEST(RetryPolicyTest, BreakerLifecycleOnFakeClock) {
  dpolicy::RetryPolicy policy(TestRetryOptions());
  Micros now = 0;
  // Five consecutive crashes trip the breaker (kind is breaker-relevant
  // even though a jail kill is never retried).
  for (int i = 0; i < 5; ++i) {
    policy.OnFailure("f", dpolicy::FailureKind::kJailKill, true, 0, now);
  }
  auto stats = policy.Stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breakers_open, 1);

  // Open: fast-fail until the cooldown elapses.
  auto admit = policy.Admit("f", now + 10);
  EXPECT_FALSE(admit.allow);
  EXPECT_STREQ(admit.reason, "breaker open");

  // Cooldown elapsed: exactly one probe is admitted, concurrents fast-fail.
  now += 1 * kMicrosPerSecond;
  admit = policy.Admit("f", now);
  EXPECT_TRUE(admit.allow);
  EXPECT_STREQ(admit.reason, "half-open probe");
  EXPECT_FALSE(policy.Admit("f", now).allow);

  // Probe failure re-opens and restarts the cooldown.
  policy.OnFailure("f", dpolicy::FailureKind::kCrash, true, 0, now);
  EXPECT_FALSE(policy.Admit("f", now + 1).allow);
  EXPECT_EQ(policy.Stats().breaker_trips, 2u);

  // Second probe succeeds: the breaker closes and the recovery is counted.
  now += 1 * kMicrosPerSecond;
  EXPECT_TRUE(policy.Admit("f", now).allow);
  policy.OnSuccess("f");
  stats = policy.Stats();
  EXPECT_EQ(stats.breaker_recoveries, 1u);
  EXPECT_EQ(stats.breakers_open, 0);
  EXPECT_TRUE(policy.Admit("f", now).allow);

  const auto breakers = policy.Breakers();
  ASSERT_EQ(breakers.size(), 1u);
  EXPECT_EQ(breakers[0].function, "f");
  EXPECT_EQ(breakers[0].state, dpolicy::BreakerState::kClosed);
  EXPECT_EQ(breakers[0].consecutive_failures, 0);
}

TEST(RetryPolicyTest, OpenBreakerSuppressesRetriesForItsFunction) {
  dpolicy::RetryOptions options = TestRetryOptions();
  options.breaker_trip_after = 2;
  dpolicy::RetryPolicy policy(options);
  EXPECT_TRUE(policy.OnFailure("f", dpolicy::FailureKind::kCrash, false, 0, 0).retry);
  // Second consecutive failure trips the breaker; granting a relaunch at
  // the same moment would race the fast-fail gate.
  const auto decision = policy.OnFailure("f", dpolicy::FailureKind::kCrash, false, 1, 0);
  EXPECT_FALSE(decision.retry);
  EXPECT_STREQ(decision.reason, "breaker open");
}

TEST(RetryPolicyTest, DisabledPolicyIsInert) {
  dpolicy::RetryOptions options = TestRetryOptions();
  options.enabled = false;
  dpolicy::RetryPolicy policy(options);
  EXPECT_TRUE(policy.Admit("f", 0).allow);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(policy.OnFailure("f", dpolicy::FailureKind::kCrash, true, 0, 0).retry);
  }
  EXPECT_TRUE(policy.Admit("f", 0).allow);
  EXPECT_EQ(policy.Stats().retries_granted, 0u);
  EXPECT_EQ(policy.Stats().breaker_trips, 0u);
}

// ------------------------------------------------------------- membership

using dpolicy::MemberSignals;
using dpolicy::MembershipDecision;
using dpolicy::MembershipOptions;
using dpolicy::MembershipPolicy;
using dpolicy::MemberState;

MembershipOptions FastMembership() {
  MembershipOptions options;
  options.suspect_after_us = 100;
  options.evict_after_us = 300;
  return options;
}

TEST(MembershipPolicyTest, JoinStartsActiveWithGraceWindow) {
  MembershipPolicy policy(FastMembership());
  // A just-added peer has never gossiped (last_heard_us = 0): it ages from
  // first sight, so it stays active through the suspect window.
  auto decision = policy.Tick(1000, {{"n0", 0}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_STREQ(decision.transitions[0].reason, "joined");
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kActive);

  decision = policy.Tick(1000 + 99, {{"n0", 0}});
  EXPECT_TRUE(decision.transitions.empty());
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kActive);

  // Grace exhausted without a first gossip: suspect like anyone else.
  decision = policy.Tick(1000 + 100, {{"n0", 0}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_STREQ(decision.transitions[0].reason, "stale");
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kSuspect);
}

TEST(MembershipPolicyTest, StaleMemberSuspectsThenEvicts) {
  MembershipPolicy policy(FastMembership());
  policy.Tick(1000, {{"n0", 1000}});
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kActive);

  auto decision = policy.Tick(1150, {{"n0", 1000}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_EQ(decision.transitions[0].to, MemberState::kSuspect);
  EXPECT_STREQ(decision.transitions[0].reason, "stale");

  decision = policy.Tick(1400, {{"n0", 1000}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_EQ(decision.transitions[0].to, MemberState::kLeft);
  EXPECT_STREQ(decision.transitions[0].reason, "evicted");
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kLeft);
  EXPECT_EQ(policy.stats().suspects, 1u);
  EXPECT_EQ(policy.stats().evictions, 1u);
}

TEST(MembershipPolicyTest, RecoveryAndRejoinAreDistinct) {
  MembershipPolicy policy(FastMembership());
  policy.Tick(1000, {{"n0", 1000}});
  policy.Tick(1150, {{"n0", 1000}});  // → suspect.

  // Fresh gossip while suspect recovers.
  auto decision = policy.Tick(1200, {{"n0", 1190}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_STREQ(decision.transitions[0].reason, "recovered");
  EXPECT_EQ(policy.stats().recoveries, 1u);

  // Stale all the way to eviction, then fresh gossip rejoins.
  policy.Tick(2000, {{"n0", 1190}});
  ASSERT_EQ(policy.StateOf("n0"), MemberState::kLeft);
  decision = policy.Tick(2100, {{"n0", 2090}});
  ASSERT_EQ(decision.transitions.size(), 1u);
  EXPECT_STREQ(decision.transitions[0].reason, "rejoined");
  EXPECT_EQ(policy.stats().rejoins, 1u);
  EXPECT_EQ(policy.StateOf("n0"), MemberState::kActive);
}

TEST(MembershipPolicyTest, OmittedMemberIsForgotten) {
  MembershipPolicy policy(FastMembership());
  policy.Tick(1000, {{"n0", 1000}, {"n1", 1000}});
  EXPECT_EQ(policy.StateOf("n1"), MemberState::kActive);
  // Administrative removal: n1 vanishes from the roster, not via staleness.
  policy.Tick(1010, {{"n0", 1010}});
  EXPECT_EQ(policy.StateOf("n1"), MemberState::kLeft);  // Unknown = unroutable.
  EXPECT_EQ(policy.stats().evictions, 0u);
}

TEST(RetryPolicyTest, FailureKindNamesAreStable) {
  // statz and the bench JSON key sections by these names.
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kNone), "none");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kCrash), "crash");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kJailKill), "jail_kill");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kDeadlineKill), "deadline_kill");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kCancelKill), "cancel_kill");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kNonzeroExit), "nonzero_exit");
  EXPECT_EQ(dpolicy::FailureKindName(dpolicy::FailureKind::kResourceExhausted),
            "resource_exhausted");
}

}  // namespace
