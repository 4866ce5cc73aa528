// One timer thread for the whole process. The deadline reaper, retry
// backoff, the elasticity control tick and cluster gossip rounds schedule
// closures here instead of each running a private sleep-until-the-earliest-
// item loop on a thread of its own.
//
// Callback contract: bounded CPU work, never blocking on I/O or on another
// thread — every other timer in the process waits behind a running callback.
// The one deliberate exception is the sandbox pool's prewarm fill inside the
// control tick: a template fork plus a liveness-ack wait bounded by the
// pool's arm timeout, so it can delay other timers by milliseconds.
#ifndef SRC_BASE_TIMER_SERVICE_H_
#define SRC_BASE_TIMER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/base/clock.h"
#include "src/base/thread.h"

namespace dbase {

class TimerService {
 public:
  using Id = uint64_t;

  // Process-wide instance, intentionally leaked (timers may be cancelled
  // during static teardown).
  static TimerService* Get();

  TimerService() = default;
  // Stops the thread; pending callbacks never run.
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  // Runs `fn` on the timer thread once MonotonicClock reaches `due_us`
  // (at once when already past). Callbacks run outside the service's lock,
  // in due order. The thread starts on the first call; ids are never reused
  // and never 0.
  Id At(Micros due_us, std::function<void()> fn);
  // Runs `fn` every `period_us`, measured from the end of the previous run,
  // until cancelled.
  Id Every(Micros period_us, std::function<void()> fn);

  // Drops the timer; returns true iff it was pending, so a one-shot `fn`
  // will never run. When `fn` is running on the timer thread, Cancel
  // waits for it to return (a periodic one is not re-armed), so the owner
  // may destroy what it captured; called from inside a callback it does
  // not wait.
  bool Cancel(Id id);

 private:
  struct Entry {
    std::function<void()> fn;
    Micros period_us = 0;  // 0 = one-shot.
  };

  Id Schedule(Micros due_us, Entry entry);
  void Loop();

  std::mutex mu_;
  std::condition_variable wake_cv_;  // New earliest entry, or stop.
  std::condition_variable done_cv_;  // running_ changed; Cancel waits on it.
  std::map<std::pair<Micros, Id>, Entry> queue_;
  std::unordered_map<Id, Micros> due_of_;
  Id next_id_ = 1;
  Id running_ = 0;                  // Executing outside the lock; 0 = none.
  bool running_cancelled_ = false;  // A periodic running_ must not re-arm.
  bool stop_ = false;
  std::thread::id thread_id_;
  JoiningThread thread_;  // Last: joined before the state above dies.
};

}  // namespace dbase

#endif  // SRC_BASE_TIMER_SERVICE_H_
