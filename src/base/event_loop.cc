#include "src/base/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/base/log.h"
#include "src/base/thread.h"

namespace dbase {
namespace {

constexpr int kMaxEventsPerWait = 64;

// Absolute due time `delay` from now, saturating instead of overflowing.
Micros DeadlineAfter(Micros delay) {
  const Micros now = MonotonicClock::Get()->NowMicros();
  if (delay <= 0) {
    return now;
  }
  return delay > std::numeric_limits<Micros>::max() - now ? std::numeric_limits<Micros>::max()
                                                          : now + delay;
}

}  // namespace

EventLoop* EventLoop::Process() {
  // Leaked together with its thread, which is never joined: reachable from
  // this static, so leak checkers stay quiet.
  struct Reactor {
    std::unique_ptr<EventLoop> loop;
    JoiningThread thread;
  };
  static Reactor* const reactor = [] {
    auto loop = Create();
    if (!loop.ok()) {
      DLOG(Error) << "cannot create the process reactor: " << loop.status().ToString();
      std::abort();
    }
    auto* created = new Reactor{std::move(loop).value(), JoiningThread()};
    created->thread = JoiningThread("reactor", [loop = created->loop.get()] { loop->Run(); });
    // Publish the thread before returning, so running() holds for every
    // caller from here on; Run() stores the same id when it starts.
    created->loop->loop_thread_id_.store(created->thread.id(), std::memory_order_release);
    return created;
  }();
  return reactor->loop.get();
}

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Unavailable(std::string("epoll_create1 failed: ") + std::strerror(errno));
  }
  const int wakeup_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd < 0) {
    close(epoll_fd);
    return Unavailable(std::string("eventfd failed: ") + std::strerror(errno));
  }
  std::unique_ptr<EventLoop> loop(new EventLoop(epoll_fd, wakeup_fd));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wakeup_fd, &ev) != 0) {
    return Unavailable(std::string("epoll_ctl(wakeup) failed: ") + std::strerror(errno));
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wakeup_fd)
    : epoll_fd_(epoll_fd), wakeup_fd_(wakeup_fd) {}

EventLoop::~EventLoop() {
  close(wakeup_fd_);
  close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Internal(std::string("epoll_ctl(ADD) failed: ") + std::strerror(errno));
  }
  fd_callbacks_[fd] = std::make_shared<const FdCallback>(std::move(callback));
  return OkStatus();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Internal(std::string("epoll_ctl(MOD) failed: ") + std::strerror(errno));
  }
  return OkStatus();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_callbacks_.erase(fd);
}

void EventLoop::Post(std::function<void()> fn) {
  bool need_wake;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    need_wake = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  if (!need_wake) {
    return;  // A wakeup for the queued batch is already in flight.
  }
  const uint64_t one = 1;
  // The eventfd is valid for the EventLoop's whole lifetime; a full counter
  // (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wakeup_fd_, &one, sizeof(one));
}

EventLoop::TimerId EventLoop::AddTimer(Micros delay, std::function<void()> fn) {
  const TimerId id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  ArmTimer(id, DeadlineAfter(delay), std::move(fn));
  return id;
}

void EventLoop::ArmTimer(TimerId id, Micros deadline, std::function<void()> fn) {
  timers_.emplace(id, Timer{deadline, std::move(fn)});
  timer_index_.emplace(deadline, id);
}

void EventLoop::CancelTimer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) {
    return;
  }
  timer_index_.erase({it->second.deadline, id});
  timers_.erase(it);
}

void EventLoop::ForgetTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(posted_mu_);
  forgotten_.push_back(id);
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  std::vector<TimerId> forgotten;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    batch.swap(posted_);
    forgotten.swap(forgotten_);
  }
  for (TimerId id : forgotten) {
    CancelTimer(id);
  }
  for (auto& fn : batch) {
    fn();
  }
}

void EventLoop::RunDueTimers(Micros now) {
  while (!timer_index_.empty() && timer_index_.begin()->first <= now) {
    auto it = timers_.find(timer_index_.begin()->second);
    timer_index_.erase(timer_index_.begin());
    std::function<void()> fn = std::move(it->second.fn);
    timers_.erase(it);
    fn();
  }
}

timespec EventLoop::WaitTimeout(Micros remaining) {
  constexpr Micros kMaxWait = 24 * 3600 * kMicrosPerSecond;
  const Micros wait = std::clamp<Micros>(remaining, 0, kMaxWait);
  return timespec{static_cast<time_t>(wait / kMicrosPerSecond),
                  static_cast<long>(wait % kMicrosPerSecond * 1000)};
}

void EventLoop::Run() {
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  (void)prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);  // The default 50 us makes every timer late.
  epoll_event events[kMaxEventsPerWait];
  while (!stopped_.load(std::memory_order_acquire)) {
    const bool timed = !timer_index_.empty();  // If not, wait for an fd or a post.
    const timespec timeout = timed ? WaitTimeout(timer_index_.begin()->first -
                                                 MonotonicClock::Get()->NowMicros())
                                   : timespec{};
    const int n =
        epoll_pwait2(epoll_fd_, events, kMaxEventsPerWait, timed ? &timeout : nullptr, nullptr);
    if (n < 0 && errno != EINTR) {
      DLOG(Error) << "epoll_pwait2 failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        uint64_t drained;
        while (read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Re-lookup per event: an earlier callback in this batch may have
      // Remove()d this fd (e.g. closed a sibling connection).
      auto it = fd_callbacks_.find(fd);
      if (it == fd_callbacks_.end()) {
        continue;
      }
      // Pin the callback (pointer copy, not closure copy): it may Remove()
      // its own fd mid-call, and erasing the stored entry must not destroy
      // the closure under its own feet.
      const std::shared_ptr<const FdCallback> callback = it->second;
      (*callback)(events[i].events);
    }
    RunPosted();
    RunDueTimers(MonotonicClock::Get()->NowMicros());
  }
  // A Stop() racing the final wait may leave closures behind; run them so
  // shutdown work posted just before Stop() is not silently dropped.
  RunPosted();
  loop_thread_id_.store(std::thread::id(), std::memory_order_release);
}

EventLoop::Scope::Scope(EventLoop* loop) : loop_(loop) {}

EventLoop::Scope::~Scope() { Close(); }

Status EventLoop::Scope::Add(int fd, uint32_t events, FdCallback callback) {
  if (state_->closed.load(std::memory_order_relaxed)) {
    return FailedPrecondition("event loop scope closed");
  }
  RETURN_IF_ERROR(loop_->Add(fd, events, std::move(callback)));
  state_->fds.insert(fd);
  return OkStatus();
}

Status EventLoop::Scope::Modify(int fd, uint32_t events) { return loop_->Modify(fd, events); }

void EventLoop::Scope::Remove(int fd) {
  if (state_->fds.erase(fd) > 0) {
    loop_->Remove(fd);
  }
}

void EventLoop::Scope::Post(std::function<void()> fn) {
  loop_->Post([state = state_, fn = std::move(fn)] {
    if (!state->closed.load(std::memory_order_relaxed)) {
      fn();
    }
  });
}

EventLoop::TimerId EventLoop::Scope::AddTimer(Micros delay, std::function<void()> fn) {
  if (state_->closed.load(std::memory_order_relaxed)) {
    return 0;
  }
  const TimerId id = loop_->next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state_->timers_mu);
    state_->timers.insert(id);
  }
  auto arm = [loop = loop_, state = state_, id, deadline = DeadlineAfter(delay),
              fn = std::move(fn)]() mutable {
    if (state->closed.load(std::memory_order_relaxed) || !state->Pending(id)) {
      return;  // Closed or cancelled while the registration was in flight.
    }
    loop->ArmTimer(id, deadline, [state, id, fn = std::move(fn)] {
      // A CancelTimer that raced the due time, from any thread, wins.
      if (state->Take(id)) {
        fn();
      }
    });
  };
  if (OnLoop()) {
    arm();
  } else {
    loop_->Post(std::move(arm));
  }
  return id;
}

void EventLoop::Scope::CancelTimer(TimerId id) {
  if (!state_->Take(id)) {
    return;
  }
  // The timer can no longer run; what remains is freeing the loop's entry,
  // which off the loop waits for its next wakeup instead of causing one.
  if (OnLoop()) {
    loop_->CancelTimer(id);
  } else {
    loop_->ForgetTimer(id);
  }
}

bool EventLoop::Scope::State::Pending(TimerId id) {
  std::lock_guard<std::mutex> lock(timers_mu);
  return timers.count(id) > 0;
}

bool EventLoop::Scope::State::Take(TimerId id) {
  std::lock_guard<std::mutex> lock(timers_mu);
  return timers.erase(id) > 0;
}

bool EventLoop::Scope::OnLoop() const { return loop_->IsLoopThread() || !loop_->running(); }

void EventLoop::Scope::RunOnLoop(const std::function<void()>& fn) {
  if (OnLoop()) {
    fn();
    return;
  }
  Latch ran(1);
  loop_->Post([&] {
    fn();
    ran.CountDown();
  });
  ran.Wait();
}

bool EventLoop::Scope::Run(const std::function<void()>& fn) {
  bool ran = false;
  RunOnLoop([&] {
    if (!state_->closed.load(std::memory_order_acquire)) {
      fn();
      ran = true;
    }
  });
  return ran;
}

void EventLoop::Scope::Close(std::function<void()> last) {
  if (state_->closed.load(std::memory_order_acquire)) {
    return;
  }
  RunOnLoop([this, &last] {
    if (state_->closed.exchange(true, std::memory_order_acq_rel)) {
      return;  // A concurrent Close() got here first.
    }
    if (last) {
      last();
    }
    for (int fd : state_->fds) {
      loop_->Remove(fd);
    }
    state_->fds.clear();
    std::set<TimerId> timers;
    {
      std::lock_guard<std::mutex> lock(state_->timers_mu);
      timers.swap(state_->timers);
    }
    for (TimerId id : timers) {
      loop_->CancelTimer(id);
    }
  });
}

}  // namespace dbase
