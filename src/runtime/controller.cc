#include "src/runtime/controller.h"

#include <algorithm>
#include <utility>

namespace dandelion {

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
  const WorkerSet::SignalsSnapshot snapshot = workers_->Signals();
  last_compute_pushed_ = snapshot.compute_pushed;
  last_compute_popped_ = snapshot.compute_popped;
  last_comm_pushed_ = snapshot.comm_pushed;
  last_comm_popped_ = snapshot.comm_popped;
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

uint64_t ControlPlane::AddSignalSource(SignalSource source) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_source_id_++;
  sources_.emplace_back(id, std::move(source));
  return id;
}

void ControlPlane::RemoveSignalSource(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->first == id) {
      sources_.erase(it);
      return;
    }
  }
}

uint64_t ControlPlane::AddTicker(Ticker ticker) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_source_id_++;
  tickers_.emplace_back(id, std::move(ticker));
  return id;
}

void ControlPlane::RemoveTicker(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = tickers_.begin(); it != tickers_.end(); ++it) {
    if (it->first == id) {
      tickers_.erase(it);
      return;
    }
  }
}

ControlPlane::Decision ControlPlane::StepOnce() {
  const WorkerSet::SignalsSnapshot snapshot = workers_->Signals();

  dpolicy::ElasticitySignals signals;
  signals.now_us = dbase::MonotonicClock::Get()->NowMicros();
  signals.compute_workers = snapshot.compute_workers;
  signals.comm_workers = snapshot.comm_workers;
  // Queue growth over the last interval: arrivals minus departures.
  signals.compute_growth =
      static_cast<double>(snapshot.compute_pushed - last_compute_pushed_) -
      static_cast<double>(snapshot.compute_popped - last_compute_popped_);
  signals.comm_growth = static_cast<double>(snapshot.comm_pushed - last_comm_pushed_) -
                        static_cast<double>(snapshot.comm_popped - last_comm_popped_);
  last_compute_pushed_ = snapshot.compute_pushed;
  last_compute_popped_ = snapshot.compute_popped;
  last_comm_pushed_ = snapshot.comm_pushed;
  last_comm_popped_ = snapshot.comm_popped;

  signals.compute_backlog = snapshot.compute_backlog;
  signals.comm_backlog = snapshot.comm_backlog;
  signals.interactive_compute_backlog = snapshot.compute_urgent_backlog;
  signals.interactive_comm_backlog = snapshot.comm_urgent_backlog;
  signals.comm_inflight = static_cast<double>(snapshot.comm_inflight);
  signals.comm_parallelism = snapshot.comm_parallelism;

  {
    // Snapshot the sources under the lock, run them outside it (a source
    // may itself take locks; AddSignalSource must never deadlock a tick).
    std::vector<std::pair<uint64_t, SignalSource>> sources;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sources = sources_;
    }
    for (const auto& [id, source] : sources) {
      source(&signals);
    }
  }

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
  {
    // Same snapshot-then-run-unlocked discipline as the signal sources: a
    // ticker (the sandbox pool's prewarm request) takes its own locks, so it
    // must never run under mu_.
    std::vector<std::pair<uint64_t, Ticker>> tickers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tickers = tickers_;
    }
    for (const auto& [id, ticker] : tickers) {
      ticker(signals.now_us);
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
