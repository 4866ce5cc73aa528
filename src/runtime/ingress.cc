#include "src/runtime/ingress.h"

#include <utility>

namespace dandelion {

// One admitted invocation's class slot, freed once: by the wrapper as it
// runs, or with the wrapper's last copy if it never runs.
struct Ingress::Slot {
  ~Slot() { Free(); }
  void Free() {
    if (!freed) {
      freed = true;
      --counters->inflight[klass];
    }
  }

  std::shared_ptr<Stats> counters;
  size_t klass;
  bool freed = false;
};

Ingress::Ingress(size_t max_inflight_interactive, size_t max_inflight_batch)
    : caps_{max_inflight_interactive, max_inflight_batch} {}

Dispatcher::ResultCallback Ingress::Admit(PriorityClass priority,
                                          Dispatcher::ResultCallback done) {
  const auto klass = static_cast<size_t>(priority);
  const size_t cap = caps_[klass];
  if (cap != 0 && static_cast<size_t>(counters_->inflight[klass]) >= cap) {
    ++counters_->shed;
    return nullptr;
  }
  ++counters_->inflight[klass];  // Counted when uncapped too, for /statz.
  return [slot = std::make_shared<Slot>(counters_, klass),
          done = std::move(done)](dbase::Result<dfunc::DataSetList> result) {
    slot->Free();
    Stats& counters = *slot->counters;
    ++counters.served;
    if (result.status().code() == dbase::StatusCode::kDeadlineExceeded) {
      ++counters.deadline_exceeded;
    }
    done(std::move(result));
  };
}

Ingress::Stats Ingress::stats() const { return *counters_; }

}  // namespace dandelion
