#include "src/runtime/ingress.h"

#include <utility>

namespace dandelion {

// One admitted invocation's class slot, freed once: by the wrapper as it
// runs, or with the wrapper's last copy if it never runs.
struct Ingress::Slot {
  ~Slot() { Free(); }
  void Free() {
    if (!freed.exchange(true, std::memory_order_relaxed)) {
      counters->inflight[klass].fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<Counters> counters;
  size_t klass;
  std::atomic<bool> freed{false};
};

Ingress::Ingress(size_t max_inflight_interactive, size_t max_inflight_batch)
    : caps_{max_inflight_interactive, max_inflight_batch} {}

Dispatcher::ResultCallback Ingress::Admit(PriorityClass priority,
                                          Dispatcher::ResultCallback done) {
  const auto klass = static_cast<size_t>(priority);
  const size_t cap = caps_[klass];
  // Counted when uncapped too, for /statz.
  const auto before =
      static_cast<size_t>(counters_->inflight[klass].fetch_add(1, std::memory_order_relaxed));
  if (cap != 0 && before >= cap) {
    counters_->inflight[klass].fetch_sub(1, std::memory_order_relaxed);
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return [slot = std::make_shared<Slot>(counters_, klass),
          done = std::move(done)](dbase::Result<dfunc::DataSetList> result) {
    slot->Free();
    Counters& counters = *slot->counters;
    counters.served.fetch_add(1, std::memory_order_relaxed);
    if (result.status().code() == dbase::StatusCode::kDeadlineExceeded) {
      counters.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    }
    done(std::move(result));
  };
}

Ingress::Stats Ingress::stats() const {
  Stats stats;
  for (int klass = 0; klass < kNumPriorityClasses; ++klass) {
    stats.inflight[klass] = counters_->inflight[klass].load(std::memory_order_relaxed);
  }
  stats.served = counters_->served.load(std::memory_order_relaxed);
  stats.shed = counters_->shed.load(std::memory_order_relaxed);
  stats.deadline_exceeded = counters_->deadline_exceeded.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dandelion
