// Failure taxonomy and retry/circuit-breaker policy (ROADMAP "Real syscall
// jail" PR): because Dandelion functions are pure computations over declared
// input sets, a sandbox-level failure — crash, transient resource
// exhaustion, a lost peer — is always safe to retry transparently; no
// external side effect can have escaped the sandbox. That structural
// advantage over generic FaaS is exploited here as a pure policy object in
// the same mold as ElasticityPolicy: RetryPolicy owns no
// clocks or threads, takes time as an input, and is executed identically by
// the runtime dispatcher and by dsim, so retry/breaker behaviour is
// unit-testable on a fake clock and parity-checkable in virtual time.
#ifndef SRC_POLICY_RETRY_H_
#define SRC_POLICY_RETRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"

namespace dpolicy {

// How a sandbox execution ended, beyond the Status it reported. kNone means
// "no sandbox-level failure" — including functional errors a body returned
// deliberately, which are results, not faults, and are never retried.
// The values are the dnet wire's failure byte (WireOutcome::failure_kind),
// so each is pinned: a retired kind leaves its number unused (6 was a warm
// pool's lost template child).
enum class FailureKind {
  kNone = 0,
  kCrash = 1,              // Killed by an unexpected signal (SIGSEGV, SIGILL, ...).
  kJailKill = 2,           // Killed by the seccomp jail (SIGSYS): forbidden syscall.
  kDeadlineKill = 3,       // SIGKILLed / preempted at the deadline.
  kCancelKill = 4,         // SIGKILLed / preempted on invocation cancel.
  kNonzeroExit = 5,        // Child exited with a nonzero status.
  kResourceExhausted = 7,  // fork/context allocation failed (or injected fault).
  kPeerLost = 8,           // Remote node died / connection lost mid-invocation.
};

std::string_view FailureKindName(FailureKind kind);

// Retry-safe kinds: the failure is environmental, the function never
// produced an outcome, and a re-run can succeed. Jail kills and nonzero
// exits are the function's own deterministic behaviour; deadline/cancel
// kills are the client's decision — none of those retry. A lost peer is
// environmental too: Dandelion functions are pure, so re-running the
// invocation on another node is always side-effect-safe.
inline bool IsRetrySafe(FailureKind kind) {
  return kind == FailureKind::kCrash || kind == FailureKind::kResourceExhausted ||
         kind == FailureKind::kPeerLost;
}

// Kinds that reflect on the function's (or the node's) health and feed the
// circuit breaker. Deadline and cancel kills are client behaviour, not
// function failure, and must not trip a breaker.
inline bool IsBreakerRelevant(FailureKind kind) {
  return kind != FailureKind::kNone && kind != FailureKind::kDeadlineKill &&
         kind != FailureKind::kCancelKill;
}

struct RetryOptions {
  bool enabled = true;
  // Per-class retry budgets: interactive invocations never burn their
  // deadline on long retry chains; batch work can afford more attempts.
  int max_retries_interactive = 1;
  int max_retries_batch = 3;
  // Exponential backoff: attempt k (0-based) waits
  // min(cap, base * multiplier^k) before relaunching.
  dbase::Micros backoff_base_us = 1000;
  double backoff_multiplier = 2.0;
  dbase::Micros backoff_cap_us = 100 * 1000;
  // Circuit breaker: after this many consecutive breaker-relevant failures
  // of one function, launches fast-fail kUnavailable...
  int breaker_trip_after = 5;
  // ...until the cooldown elapses, after which one half-open probe is let
  // through; its success closes the breaker, its failure re-opens it.
  dbase::Micros breaker_cooldown_us = 1 * dbase::kMicrosPerSecond;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view BreakerStateName(BreakerState state);

struct AdmitDecision {
  bool allow = true;
  // "closed" / "half-open probe" / "breaker open" — static strings.
  const char* reason = "closed";
};

struct RetryDecision {
  bool retry = false;
  dbase::Micros backoff_us = 0;
  // "granted" / "budget exhausted" / "kind not retry-safe" / "breaker open"
  // / "disabled" — static strings.
  const char* reason = "";
};

struct BreakerSnapshot {
  std::string function;
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  dbase::Micros opened_at_us = 0;
};

struct RetryPolicyStats {
  uint64_t retries_granted = 0;
  uint64_t retries_denied_budget = 0;
  uint64_t retries_denied_kind = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_recoveries = 0;
  int breakers_open = 0;  // Open + half-open breakers at snapshot time.
};

// Pure and unsynchronized, like every dpolicy object: the dispatcher guards
// it with its own mutex, dsim and unit tests drive it single-threaded.
class RetryPolicy {
 public:
  RetryPolicy() : RetryPolicy(RetryOptions{}) {}
  explicit RetryPolicy(RetryOptions options) : options_(options) {}

  // Launch-time admission. A tripped breaker fast-fails until its cooldown
  // elapses, after which the first Admit becomes the half-open probe.
  AdmitDecision Admit(const std::string& function, dbase::Micros now_us);

  // One sandbox-level failure of `function`. Updates the breaker
  // (consecutive count, trip, half-open → re-open) and decides whether the
  // dispatcher should relaunch: kind must be retry-safe, the per-class
  // budget must cover attempt `attempts_so_far` (0-based), and the breaker
  // must not have just tripped.
  RetryDecision OnFailure(const std::string& function, FailureKind kind, bool interactive,
                          int attempts_so_far, dbase::Micros now_us);

  // A successful execution: resets the consecutive count and closes a
  // half-open breaker.
  void OnSuccess(const std::string& function);

  std::vector<BreakerSnapshot> Breakers() const;
  RetryPolicyStats Stats() const;
  const RetryOptions& options() const { return options_; }

  dbase::Micros BackoffForAttempt(int attempts_so_far) const;

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    dbase::Micros opened_at_us = 0;
  };

  RetryOptions options_;
  std::unordered_map<std::string, Breaker> breakers_;
  RetryPolicyStats stats_;
};

}  // namespace dpolicy

#endif  // SRC_POLICY_RETRY_H_
