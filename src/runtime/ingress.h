// Ingress: the one admission gate in front of a node (Figure 4). The HTTP
// frontend and the wire's NodeAgent each hold one and pass every invoke
// through it; they keep only transport work (decoding, the 429 or shed-flag
// reply, their own Submit or InvokeAsync call). Admit() returns the
// caller's completion wrapped: running the wrapper frees the class slot
// and counts the outcome, and dropping it unrun (a request rejected after
// admission) frees the slot too. Wrappers share the counters, so a
// completion may fire after its Ingress is gone. Reactor-only: admission,
// the wrapped completions (dispatcher and router callbacks run there) and
// stats() all run on the process reactor, so the counters are plain
// fields.
#ifndef SRC_RUNTIME_INGRESS_H_
#define SRC_RUNTIME_INGRESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/runtime/dispatcher.h"
#include "src/runtime/invocation.h"

namespace dandelion {

class Ingress {
 public:
  struct Stats {
    int64_t inflight[kNumPriorityClasses] = {};
    uint64_t served = 0;  // Wrappers that ran, whatever their outcome.
    uint64_t shed = 0;    // Admit() refusals at a full class.
    uint64_t deadline_exceeded = 0;  // Served, and ended kDeadlineExceeded.
  };

  // Caps on the invocations of each class in flight; 0 = uncapped.
  Ingress(size_t max_inflight_interactive, size_t max_inflight_batch);

  // Takes a slot of `priority`'s class and returns `done` wrapped, or null
  // (counted as shed) when the class is full. Reactor-only.
  Dispatcher::ResultCallback Admit(PriorityClass priority, Dispatcher::ResultCallback done);

  Stats stats() const;  // Reactor-only.

 private:
  struct Slot;

  const size_t caps_[kNumPriorityClasses];
  // Shared with the wrappers, which may run after the Ingress is gone.
  const std::shared_ptr<Stats> counters_ = std::make_shared<Stats>();
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_INGRESS_H_
