#include "src/base/clock.h"

#include <ctime>

namespace dbase {

Micros MonotonicClock::NowMicros() const {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Micros>(ts.tv_sec) * kMicrosPerSecond + ts.tv_nsec / 1000;
}

MonotonicClock* MonotonicClock::Get() {
  // Leaked: the process reactor and timer threads are never joined and may
  // still read the clock while static destructors run at exit.
  static MonotonicClock* const clock = new MonotonicClock();
  return clock;
}

void Stopwatch::Restart() { start_ = MonotonicClock::Get()->NowMicros(); }

Micros Stopwatch::ElapsedMicros() const {
  return MonotonicClock::Get()->NowMicros() - start_;
}

void SpinFor(Micros duration) {
  if (duration <= 0) {
    return;
  }
  const Micros deadline = MonotonicClock::Get()->NowMicros() + duration;
  while (MonotonicClock::Get()->NowMicros() < deadline) {
    // Busy-wait; callers use this only for short, compute-like delays.
  }
}

}  // namespace dbase
