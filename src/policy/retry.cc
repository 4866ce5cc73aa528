#include "src/policy/retry.h"

#include <algorithm>
#include <cmath>

namespace dpolicy {

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kCrash:
      return "crash";
    case FailureKind::kJailKill:
      return "jail_kill";
    case FailureKind::kDeadlineKill:
      return "deadline_kill";
    case FailureKind::kCancelKill:
      return "cancel_kill";
    case FailureKind::kNonzeroExit:
      return "nonzero_exit";
    case FailureKind::kResourceExhausted:
      return "resource_exhausted";
    case FailureKind::kPeerLost:
      return "peer_lost";
  }
  return "unknown";
}

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

AdmitDecision RetryPolicy::Admit(const std::string& function, dbase::Micros now_us) {
  if (!options_.enabled) return {true, "disabled"};
  auto it = breakers_.find(function);
  if (it == breakers_.end()) return {true, "closed"};
  Breaker& breaker = it->second;
  switch (breaker.state) {
    case BreakerState::kClosed:
      return {true, "closed"};
    case BreakerState::kHalfOpen:
      // A probe is already in flight (or just failed and re-opened). Letting
      // more than one probe through would turn recovery into a thundering
      // herd against a possibly-still-sick function.
      ++stats_.breaker_fast_fails;
      return {false, "breaker half-open, probe in flight"};
    case BreakerState::kOpen:
      if (now_us - breaker.opened_at_us >= options_.breaker_cooldown_us) {
        breaker.state = BreakerState::kHalfOpen;
        return {true, "half-open probe"};
      }
      ++stats_.breaker_fast_fails;
      return {false, "breaker open"};
  }
  return {true, "closed"};
}

RetryDecision RetryPolicy::OnFailure(const std::string& function, FailureKind kind,
                                     bool interactive, int attempts_so_far,
                                     dbase::Micros now_us) {
  if (!options_.enabled) return {false, 0, "disabled"};

  bool breaker_open = false;
  if (IsBreakerRelevant(kind)) {
    Breaker& breaker = breakers_[function];
    ++breaker.consecutive_failures;
    if (breaker.state == BreakerState::kHalfOpen) {
      // The cooldown probe failed: straight back to open, restart cooldown.
      breaker.state = BreakerState::kOpen;
      breaker.opened_at_us = now_us;
      ++stats_.breaker_trips;
    } else if (breaker.state == BreakerState::kClosed &&
               breaker.consecutive_failures >= options_.breaker_trip_after) {
      breaker.state = BreakerState::kOpen;
      breaker.opened_at_us = now_us;
      ++stats_.breaker_trips;
    }
    breaker_open = breaker.state != BreakerState::kClosed;
  }

  if (!IsRetrySafe(kind)) {
    ++stats_.retries_denied_kind;
    return {false, 0, "kind not retry-safe"};
  }
  if (breaker_open) {
    ++stats_.retries_denied_budget;
    return {false, 0, "breaker open"};
  }
  const int budget =
      interactive ? options_.max_retries_interactive : options_.max_retries_batch;
  if (attempts_so_far >= budget) {
    ++stats_.retries_denied_budget;
    return {false, 0, "budget exhausted"};
  }
  ++stats_.retries_granted;
  return {true, BackoffForAttempt(attempts_so_far), "granted"};
}

void RetryPolicy::OnSuccess(const std::string& function) {
  auto it = breakers_.find(function);
  if (it == breakers_.end()) return;
  Breaker& breaker = it->second;
  if (breaker.state != BreakerState::kClosed) ++stats_.breaker_recoveries;
  breaker.state = BreakerState::kClosed;
  breaker.consecutive_failures = 0;
}

std::vector<BreakerSnapshot> RetryPolicy::Breakers() const {
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  for (const auto& [name, breaker] : breakers_) {
    out.push_back({name, breaker.state, breaker.consecutive_failures, breaker.opened_at_us});
  }
  return out;
}

RetryPolicyStats RetryPolicy::Stats() const {
  RetryPolicyStats stats = stats_;
  stats.breakers_open = 0;
  for (const auto& [name, breaker] : breakers_) {
    (void)name;
    if (breaker.state != BreakerState::kClosed) ++stats.breakers_open;
  }
  return stats;
}

dbase::Micros RetryPolicy::BackoffForAttempt(int attempts_so_far) const {
  double backoff = static_cast<double>(options_.backoff_base_us) *
                   std::pow(options_.backoff_multiplier, attempts_so_far);
  backoff = std::min(backoff, static_cast<double>(options_.backoff_cap_us));
  return static_cast<dbase::Micros>(backoff);
}

}  // namespace dpolicy
