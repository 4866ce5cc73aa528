// Blocking multi-producer multi-consumer queue with two FIFO lanes, close
// semantics and push/pop counters. Each engine role has one (§5): every
// worker of the role blocks on it, so a task binds to the first worker of
// its role that is free (late binding), and the control plane reads the
// role's backlog and push/pop growth from one place.
//
// Items pushed urgent pop before any normal-lane item, so interactive work
// overtakes batch backlog without a second queue or lock crossing.
//
// Each blocked consumer waits on a condition variable of its own, and a
// push wakes one idle consumer per item. With one condition variable
// shared by a role's consumers, the pushing thread's p99 submit time rose
// to about 1 ms and the server's echo capacity fell by two thirds on a
// 4-vCPU VM (glibc's pthread_cond_signal can wait for waiters woken
// earlier to be scheduled).
#ifndef SRC_BASE_QUEUE_H_
#define SRC_BASE_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace dbase {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Returns false if the queue is closed (item is dropped).
  bool Push(T item, bool urgent = false) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    (urgent ? urgent_ : items_).push_back(std::move(item));
    ++total_pushed_;
    WakeLocked(1);
    return true;
  }

  // Lands a whole batch in one lock crossing; every item still counts as
  // one push. Returns false (dropping the batch) if the queue is closed.
  bool PushBatch(std::vector<T> items, bool urgent = false) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    std::deque<T>& lane = urgent ? urgent_ : items_;
    for (auto& item : items) {
      lane.push_back(std::move(item));
    }
    total_pushed_ += items.size();
    WakeLocked(items.size());
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    return Pop([] { return false; });
  }

  template <typename Stop>
  std::optional<T> Pop(Stop stop) {
    return Pop(stop, [] { return true; });
  }

  // Blocks until an item is available and the take-gate `open()` lets it
  // be taken, `stop()` holds, or the queue is closed and drained. When
  // `stop()` holds it takes nothing and returns nullopt, so the caller can
  // re-read what stop reads. `open()` is asked when an item is ready, and
  // a true answer is always followed by the take, so the caller may count
  // the take inside it; while it answers false the call waits as if the
  // queue were empty. Both run under the queue lock; whoever changes what
  // they read calls Wake() afterwards, and then no wait misses the change.
  template <typename Stop, typename Gate>
  std::optional<T> Pop(Stop stop, Gate open) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop()) {
      if (!Empty() && open()) {
        return PopFrontLocked();
      }
      if (closed_) {
        return std::nullopt;
      }
      Waiter self;
      idle_.push_back(&self);
      self.cv.wait(lock, [&] { return self.woken; });
    }
    if (!Empty()) {
      WakeLocked(1);  // A push's wake may have landed here: pass it on.
    }
    return std::nullopt;
  }

  // Non-blocking.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopFrontLocked();
  }

  // Wakes every waiter to re-check its stop predicate.
  void Wake() {
    std::lock_guard<std::mutex> lock(mu_);
    WakeLocked(idle_.size());
  }

  // After Close(), pushes fail and pops drain the remaining items then
  // return nullopt. Wakes all waiters.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    WakeLocked(idle_.size());
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size() + urgent_.size();
  }

  // Urgent-lane backlog: the control plane's interactive queue depth.
  size_t UrgentSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return urgent_.size();
  }

  // Cumulative counters; the controller uses deltas of these between
  // sampling periods as queue growth rates (arrivals − departures).
  uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_pushed_;
  }
  uint64_t total_popped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_popped_;
  }

 private:
  // A consumer blocked in Pop, on its own stack while listed in idle_. The
  // waker unlists it, sets `woken` and notifies under mu_, so the waiter
  // cannot return and destroy it in between.
  struct Waiter {
    std::condition_variable cv;
    bool woken = false;
  };

  bool Empty() const { return items_.empty() && urgent_.empty(); }

  // Wakes up to n idle waiters, the most recently idle first (its cache is
  // the warmest). Caller holds mu_.
  void WakeLocked(size_t n) {
    for (; n > 0 && !idle_.empty(); --n) {
      Waiter* waiter = idle_.back();
      idle_.pop_back();
      waiter->woken = true;
      waiter->cv.notify_one();
    }
  }

  // Pops the front item, urgent lane first. Caller holds mu_.
  std::optional<T> PopFrontLocked() {
    std::deque<T>& lane = urgent_.empty() ? items_ : urgent_;
    if (lane.empty()) {
      return std::nullopt;
    }
    T item = std::move(lane.front());
    lane.pop_front();
    ++total_popped_;
    return item;
  }

  mutable std::mutex mu_;
  std::vector<Waiter*> idle_;  // Blocked consumers, the most recent last.
  std::deque<T> items_;        // Normal lane.
  std::deque<T> urgent_;  // Pops ahead of items_ (interactive class).
  bool closed_ = false;
  uint64_t total_pushed_ = 0;
  uint64_t total_popped_ = 0;
};

}  // namespace dbase

#endif  // SRC_BASE_QUEUE_H_
