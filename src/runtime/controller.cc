#include "src/runtime/controller.h"

#include <utility>

namespace dandelion {

namespace {

// Queue growth since the last sample: arrivals minus departures. Moves the
// baseline to the new counters.
double Growth(uint64_t pushed, uint64_t popped, uint64_t* last_pushed, uint64_t* last_popped) {
  const double growth = static_cast<double>(pushed - *last_pushed) -
                        static_cast<double>(popped - *last_popped);
  *last_pushed = pushed;
  *last_popped = popped;
  return growth;
}

}  // namespace

ControlPlane::ControlPlane(WorkerSet* workers, std::unique_ptr<dpolicy::ElasticityPolicy> policy,
                           Config config)
    : workers_(workers), config_(config), policy_(std::move(policy)) {
  if (policy_ == nullptr) {
    policy_ = dpolicy::CreatePolicy(dpolicy::PolicyKind::kPaperPi);
  }
  if (config_.history_limit == 0) {
    config_.history_limit = 1;
  }
}

ControlPlane::~ControlPlane() { Stop(); }

void ControlPlane::Start() {
  if (tick_ != nullptr) {
    return;
  }
  // Baseline the counters so the first interval measures only new growth.
  last_compute_pushed_ = workers_->compute_pushed();
  last_compute_popped_ = workers_->compute_popped();
  last_comm_pushed_ = workers_->comm_pushed();
  last_comm_popped_ = workers_->comm_popped();
  tick_ = std::make_unique<dbase::EventLoop::Scope>(dbase::EventLoop::Process());
  ArmTick();
}

void ControlPlane::ArmTick() {
  tick_->AddTimer(config_.interval_us, [this] {
    StepOnce();
    ArmTick();
  });
}

void ControlPlane::Stop() {
  if (tick_ != nullptr) {
    tick_->Close();
    tick_.reset();
  }
}

ControlPlane::Decision ControlPlane::StepOnce() {
  dpolicy::ElasticitySignals signals = workers_->Signals();
  signals.now_us = dbase::MonotonicClock::Get()->NowMicros();
  signals.compute_growth = Growth(workers_->compute_pushed(), workers_->compute_popped(),
                                  &last_compute_pushed_, &last_compute_popped_);
  signals.comm_growth = Growth(workers_->comm_pushed(), workers_->comm_popped(),
                               &last_comm_pushed_, &last_comm_popped_);

  Decision decision;
  decision.time_us = signals.now_us;
  decision.action = policy_->Decide(signals);
  decision.shifted = decision.action.shift_toward_compute != 0
                         ? workers_->ShiftWorkers(decision.action.shift_toward_compute)
                         : 0;
  // One role scan; comm is derived so the recorded split always sums to the
  // pool size even when another shift lands between here and the scan.
  decision.compute_workers = workers_->compute_workers();
  decision.comm_workers = workers_->total_workers() - decision.compute_workers;
  decision.signals = signals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(decision);
    while (history_.size() > config_.history_limit) {
      history_.pop_front();
    }
    ++decisions_;
    if (decision.shifted > 0) {
      shifts_toward_compute_ += static_cast<uint64_t>(decision.shifted);
    } else if (decision.shifted < 0) {
      shifts_toward_comm_ += static_cast<uint64_t>(-decision.shifted);
    }
  }
  return decision;
}

std::vector<ControlPlane::Decision> ControlPlane::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Decision>(history_.begin(), history_.end());
}

ControlPlane::Summary ControlPlane::GetSummary() const {
  Summary summary;
  summary.policy_name = policy_->name();
  std::lock_guard<std::mutex> lock(mu_);
  summary.decisions = decisions_;
  summary.shifts_toward_compute = shifts_toward_compute_;
  summary.shifts_toward_comm = shifts_toward_comm_;
  if (!history_.empty()) {
    summary.last = history_.back();
  }
  return summary;
}

}  // namespace dandelion
