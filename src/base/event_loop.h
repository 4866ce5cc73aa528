// Epoll-based event loop: the process's one reactor. EventLoop::Process()
// is the shared instance the HTTP frontend, every dnet NodeServer and the
// NodeClient register on. One thread calls Run(); it multiplexes socket
// readiness, one-shot timers, and closures posted from other threads (woken
// through an eventfd). Fd registration happens on the loop thread; Post(),
// Stop() and a Scope's timers are safe from anywhere — async work (engine
// completions) re-enters the loop by posting a closure rather than touching
// loop state. Components register through an EventLoop::Scope, so that
// stopping one never lets its callbacks run on. Every runtime timer rides
// this loop: the deadline reaper, retry backoff, the control tick and
// gossip rounds, next to the sockets' own timers.
#ifndef SRC_BASE_EVENT_LOOP_H_
#define SRC_BASE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"

namespace dbase {

class EventLoop {
 public:
  // Receives the EPOLLIN/EPOLLOUT/EPOLLHUP/... bitmask that fired.
  using FdCallback = std::function<void(uint32_t events)>;
  using TimerId = uint64_t;
  class Scope;

  // The process-wide reactor, started on first use (the first socket or
  // timer) on a thread named `reactor` and intentionally leaked. Its
  // callbacks must not block: every socket and timer in the process waits
  // behind a running one. It does not survive fork(): a child forked after
  // first use must exec before it starts a component.
  static EventLoop* Process();

  // Creates the epoll instance and the wakeup eventfd; fails (Unavailable)
  // only when the kernel refuses the descriptors. Beyond Process(), only
  // tests create loops.
  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Dispatches events until Stop(). Runs posted closures and due timers
  // between epoll waits.
  void Run();
  // Thread-safe; wakes the loop and makes Run() return after the current
  // iteration finishes. Idempotent.
  void Stop();

  // Registers fd for the given EPOLL* interest set (level-triggered unless
  // EPOLLET is included). The callback stays attached until Remove().
  Status Add(int fd, uint32_t events, FdCallback callback);
  // Changes the interest set of an fd previously Add()ed.
  Status Modify(int fd, uint32_t events);
  // Deregisters fd. Pending events already harvested for this fd are
  // discarded (the dispatch loop re-checks registration per event). Does
  // not close the fd.
  void Remove(int fd);

  // Thread-safe: enqueues fn to run on the loop thread and wakes the loop.
  // Closures posted after Stop() are retained but never run.
  void Post(std::function<void()> fn);

  // One-shot timer, loop-thread-only: fn runs on the loop thread once,
  // ~delay from now, rounded up to the next millisecond. Timers fire in due
  // order. Returns an id usable with CancelTimer; ids are never reused and
  // never 0.
  TimerId AddTimer(Micros delay, std::function<void()> fn);
  void CancelTimer(TimerId id);

  // True when called from inside Run() on the loop thread.
  bool IsLoopThread() const {
    return std::this_thread::get_id() == loop_thread_id_.load(std::memory_order_acquire);
  }
  // True while some thread is inside Run().
  bool running() const {
    return loop_thread_id_.load(std::memory_order_acquire) != std::thread::id();
  }

 private:
  EventLoop(int epoll_fd, int wakeup_fd);

  // Files fn under an id taken from next_timer_id_; loop-thread-only.
  void ArmTimer(TimerId id, Micros deadline, std::function<void()> fn);
  // Thread-safe CancelTimer that does not wake the loop: the entry goes at
  // its next wakeup (at the latest the timer's own due time). Only for a
  // timer whose callback can no longer run, so the delay frees memory late
  // but changes nothing else.
  void ForgetTimer(TimerId id);
  void RunPosted();
  void RunDueTimers(Micros now);
  // Milliseconds until the next timer is due (for epoll_wait), clamped to
  // what an int holds, or -1 to block indefinitely.
  int NextTimeoutMillis(Micros now) const;

  const int epoll_fd_;
  const int wakeup_fd_;

  // Loop-thread-only state. Callbacks are held by shared_ptr so dispatch
  // can pin one across its own Remove() without deep-copying the closure
  // per event.
  std::map<int, std::shared_ptr<const FdCallback>> fd_callbacks_;
  struct Timer {
    Micros deadline;
    std::function<void()> fn;
  };
  std::map<TimerId, Timer> timers_;
  // Min-heap of (deadline, id); stale entries (cancelled / re-armed ids)
  // are skipped because the id is gone from timers_.
  using TimerKey = std::pair<Micros, TimerId>;
  std::priority_queue<TimerKey, std::vector<TimerKey>, std::greater<TimerKey>> timer_heap_;
  std::atomic<std::thread::id> loop_thread_id_{};

  // Cross-thread state.
  std::atomic<TimerId> next_timer_id_{1};
  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  std::vector<TimerId> forgotten_;  // Guarded by posted_mu_.
  std::atomic<bool> stopped_{false};
};

// One component's registrations on a loop: its fds, its timers, and the
// closures it posts. Post(), AddTimer(), CancelTimer() and Close() are
// thread-safe; the fd calls are loop-thread-only. Owners whose completions
// may outlive them hold the scope by shared_ptr and let those completions
// post through it.
class EventLoop::Scope {
 public:
  explicit Scope(EventLoop* loop);
  ~Scope();  // Close()s.

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // EventLoop::Add/Modify/Remove, tracked by the scope. Add fails on a
  // closed scope; Remove ignores fds it does not hold, so a late Remove
  // never unhooks another owner's reuse of the number.
  Status Add(int fd, uint32_t events, FdCallback callback);
  Status Modify(int fd, uint32_t events);
  void Remove(int fd);
  // EventLoop::Post, except the closure is dropped unrun if the scope has
  // closed by the time its turn comes.
  void Post(std::function<void()> fn);
  // EventLoop::AddTimer/CancelTimer, callable from any thread: off the loop
  // thread the registration is posted to the loop and the cancel queued
  // for it, and the delay still counts from the call. A closed scope arms nothing (id 0), and a
  // timer cancelled before its callback starts never runs; a cancel does
  // not wait for a running callback (Close() does). A periodic job re-arms
  // itself at the end of its callback, so its period counts from the end
  // of the previous run; Close() stops it.
  TimerId AddTimer(Micros delay, std::function<void()> fn);
  void CancelTimer(TimerId id);

  // Runs `last` (if any) on the loop, then removes the scope's fds and
  // cancels its timers; closures posted through it that have not run yet
  // never will. Inline on the loop thread (from the scope's own callbacks
  // too), or on a loop nobody runs; otherwise it posts itself and waits,
  // so a running callback finishes first. Once it returns nothing
  // registered through the scope runs again. Idempotent; `last` sees the
  // scope already closed, so it may Remove and CancelTimer, not register.
  void Close(std::function<void()> last = nullptr);

 private:
  // True on the loop thread, or on a loop nobody runs: loop state may be
  // touched inline; otherwise it is posted to the loop.
  bool OnLoop() const;

  // Shared with the wrapped closures and timers, which may outlive the
  // scope.
  struct State {
    // True iff `id` is still in `timers`; Take also removes it, so exactly
    // one of the timer's firing and its cancel claims it.
    bool Pending(TimerId id);
    bool Take(TimerId id);

    std::atomic<bool> closed{false};
    std::set<int> fds;  // Loop-thread-only.
    std::mutex timers_mu;
    // Armed, or with the registration in flight; not yet fired or
    // cancelled. Guarded by timers_mu.
    std::set<TimerId> timers;
  };

  EventLoop* const loop_;
  const std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace dbase

#endif  // SRC_BASE_EVENT_LOOP_H_
