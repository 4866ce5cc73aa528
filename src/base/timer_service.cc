#include "src/base/timer_service.h"

#include <algorithm>
#include <chrono>

namespace dbase {
namespace {

// Longest single sleep: a far-future due time would overflow the nanosecond
// conversion inside wait_for, which then returns at once and spins.
constexpr Micros kMaxSleepUs = kMicrosPerSecond;

}  // namespace

TimerService* TimerService::Get() {
  static TimerService* service = new TimerService();
  return service;
}

TimerService::~TimerService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  thread_.Join();
}

TimerService::Id TimerService::At(Micros due_us, std::function<void()> fn) {
  return Schedule(due_us, Entry{std::move(fn), 0});
}

TimerService::Id TimerService::Every(Micros period_us, std::function<void()> fn) {
  return Schedule(MonotonicClock::Get()->NowMicros() + period_us,
                  Entry{std::move(fn), period_us});
}

TimerService::Id TimerService::Schedule(Micros due_us, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  const Id id = next_id_++;
  const auto it = queue_.emplace(std::make_pair(due_us, id), std::move(entry)).first;
  due_of_.emplace(id, due_us);
  if (!thread_.joinable()) {
    thread_ = JoiningThread("timer", [this] { Loop(); });
  } else if (it == queue_.begin()) {
    // Only a new earliest entry shortens the loop's current sleep.
    wake_cv_.notify_one();
  }
  return id;
}

bool TimerService::Cancel(Id id) {
  Entry dropped;  // Destroyed after the lock is released.
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto due = due_of_.find(id); due != due_of_.end()) {
    const auto it = queue_.find(std::make_pair(due->second, id));
    dropped = std::move(it->second);
    queue_.erase(it);
    due_of_.erase(due);
    return true;
  }
  if (id == 0 || running_ != id) {
    return false;
  }
  running_cancelled_ = true;
  if (std::this_thread::get_id() != thread_id_) {
    done_cv_.wait(lock, [&] { return running_ != id; });
  }
  return false;
}

void TimerService::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  thread_id_ = std::this_thread::get_id();
  while (!stop_) {
    if (queue_.empty()) {
      wake_cv_.wait(lock);
      continue;
    }
    const auto first = queue_.begin();
    const Micros now = MonotonicClock::Get()->NowMicros();
    if (first->first.first > now) {
      wake_cv_.wait_for(lock, std::chrono::microseconds(
                                  std::min(first->first.first - now, kMaxSleepUs)));
      continue;
    }
    const Id id = first->first.second;
    Entry entry = std::move(first->second);
    queue_.erase(first);
    due_of_.erase(id);
    running_ = id;
    running_cancelled_ = false;
    lock.unlock();
    entry.fn();
    const Micros next_due = MonotonicClock::Get()->NowMicros() + entry.period_us;
    lock.lock();
    if (entry.period_us > 0 && !running_cancelled_) {
      due_of_.emplace(id, next_due);
      queue_.emplace(std::make_pair(next_due, id), std::move(entry));
    } else {
      // Captured state dies outside the lock, and before Cancel returns.
      lock.unlock();
      entry.fn = nullptr;
      lock.lock();
    }
    running_ = 0;
    done_cv_.notify_all();
  }
}

}  // namespace dbase
