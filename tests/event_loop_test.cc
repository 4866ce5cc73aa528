// Tests for dbase::EventLoop: fd readiness dispatch, cross-thread Post,
// one-shot timers with cancellation (armed and cancelled from any thread
// through a Scope), clean Stop semantics, and the lifetime contract of
// EventLoop::Scope on the process reactor.
#include "src/base/event_loop.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread.h"

namespace dbase {
namespace {

std::unique_ptr<EventLoop> MustCreate() {
  auto loop = EventLoop::Create();
  EXPECT_TRUE(loop.ok()) << loop.status().ToString();
  return std::move(loop).value();
}

TEST(EventLoopTest, PostRunsOnLoopThread) {
  auto loop = MustCreate();
  std::thread::id loop_id;
  Latch ran(1);
  JoiningThread thread("loop", [&] { loop->Run(); });
  loop->Post([&] {
    loop_id = std::this_thread::get_id();
    EXPECT_TRUE(loop->IsLoopThread());
    ran.CountDown();
  });
  ASSERT_TRUE(ran.WaitFor(5 * kMicrosPerSecond));
  EXPECT_FALSE(loop->IsLoopThread());
  loop->Stop();
  thread.Join();
  EXPECT_NE(loop_id, std::this_thread::get_id());
}

TEST(EventLoopTest, FdReadinessDispatched) {
  auto loop = MustCreate();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  std::string received;
  Latch got(1);
  ASSERT_TRUE(loop->Add(fds[0], EPOLLIN, [&](uint32_t events) {
                    EXPECT_TRUE(events & EPOLLIN);
                    char buffer[64];
                    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
                    ASSERT_GT(n, 0);
                    received.assign(buffer, static_cast<size_t>(n));
                    got.CountDown();
                  }).ok());

  JoiningThread thread("loop", [&] { loop->Run(); });
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  ASSERT_TRUE(got.WaitFor(5 * kMicrosPerSecond));
  loop->Stop();
  thread.Join();
  EXPECT_EQ(received, "ping");
  loop->Remove(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, RemoveStopsDispatch) {
  auto loop = MustCreate();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  std::atomic<int> fires{0};
  ASSERT_TRUE(loop->Add(fds[0], EPOLLIN, [&](uint32_t) {
                    ++fires;
                    char buffer[64];
                    [[maybe_unused]] ssize_t n = read(fds[0], buffer, sizeof(buffer));
                    // A callback may remove its own registration mid-dispatch.
                    loop->Remove(fds[0]);
                  }).ok());

  JoiningThread thread("loop", [&] { loop->Run(); });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  // Wait for the first fire, then write again: no further dispatch expected.
  Stopwatch watch;
  while (fires.load() == 0 && watch.ElapsedMicros() < 5 * kMicrosPerSecond) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fires.load(), 1);
  ASSERT_EQ(write(fds[1], "y", 1), 1);
  Latch settled(1);
  loop->Post([&] { settled.CountDown(); });
  ASSERT_TRUE(settled.WaitFor(5 * kMicrosPerSecond));
  EXPECT_EQ(fires.load(), 1);
  loop->Stop();
  thread.Join();
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, TimerFiresAfterDelay) {
  auto loop = MustCreate();
  Latch fired(1);
  Stopwatch watch;
  Micros elapsed = 0;
  loop->Post([&] {
    loop->AddTimer(20 * kMicrosPerMilli, [&] {
      elapsed = watch.ElapsedMicros();
      fired.CountDown();
    });
  });
  JoiningThread thread("loop", [&] { loop->Run(); });
  ASSERT_TRUE(fired.WaitFor(5 * kMicrosPerSecond));
  loop->Stop();
  thread.Join();
  EXPECT_GE(elapsed, 20 * kMicrosPerMilli);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  auto loop = MustCreate();
  std::atomic<bool> cancelled_fired{false};
  Latch later_fired(1);
  loop->Post([&] {
    const EventLoop::TimerId id =
        loop->AddTimer(10 * kMicrosPerMilli, [&] { cancelled_fired = true; });
    loop->CancelTimer(id);
    // A later timer proves the heap kept running past the cancelled slot.
    loop->AddTimer(30 * kMicrosPerMilli, [&] { later_fired.CountDown(); });
  });
  JoiningThread thread("loop", [&] { loop->Run(); });
  ASSERT_TRUE(later_fired.WaitFor(5 * kMicrosPerSecond));
  loop->Stop();
  thread.Join();
  EXPECT_FALSE(cancelled_fired.load());
}

TEST(EventLoopTest, StopWakesABlockedRun) {
  auto loop = MustCreate();
  Latch finished(1);
  JoiningThread thread("loop", [&] {
    loop->Run();  // No fds, no timers: blocks until woken.
    finished.CountDown();
  });
  loop->Stop();
  EXPECT_TRUE(finished.WaitFor(5 * kMicrosPerSecond));
  thread.Join();
}

// ------------------------------------------------------- Scope on Process()

// Runs fn on the reactor through `scope` and waits for it.
void RunOn(EventLoop::Scope& scope, std::function<void()> fn) {
  Latch ran(1);
  scope.Post([&] {
    fn();
    ran.CountDown();
  });
  ASSERT_TRUE(ran.WaitFor(5 * kMicrosPerSecond));
}

TEST(EventLoopScopeTest, ProcessLoopRunsOnTheReactorThread) {
  EventLoop* loop = EventLoop::Process();
  EXPECT_EQ(loop, EventLoop::Process());
  EXPECT_TRUE(loop->running());
  EventLoop::Scope scope(loop);
  bool on_loop = false;
  RunOn(scope, [&] { on_loop = loop->IsLoopThread(); });
  EXPECT_TRUE(on_loop);
  EXPECT_FALSE(loop->IsLoopThread());
}

TEST(EventLoopScopeTest, CloseFromAnotherThreadWaitsForARunningCallback) {
  EventLoop::Scope scope(EventLoop::Process());
  Latch entered(1);
  std::atomic<bool> finished{false};
  scope.Post([&] {
    entered.CountDown();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished = true;
  });
  ASSERT_TRUE(entered.WaitFor(5 * kMicrosPerSecond));
  scope.Close();
  EXPECT_TRUE(finished.load());
}

TEST(EventLoopScopeTest, CloseDropsAClosurePostedBeforeItThatHasNotRun) {
  EventLoop* loop = EventLoop::Process();
  auto scope = std::make_unique<EventLoop::Scope>(loop);
  Latch posted(1);
  Latch closed(1);
  // Hold the reactor until the closure below is queued, then close the
  // scope on the loop thread: the queued closure's turn comes after.
  loop->Post([&] {
    posted.Wait();
    scope->Close();
    closed.CountDown();
  });
  std::atomic<bool> ran{false};
  scope->Post([&ran] { ran = true; });
  posted.CountDown();
  ASSERT_TRUE(closed.WaitFor(5 * kMicrosPerSecond));
  // A later closure on the loop runs after the dropped one's turn.
  Latch drained(1);
  loop->Post([&] { drained.CountDown(); });
  ASSERT_TRUE(drained.WaitFor(5 * kMicrosPerSecond));
  EXPECT_FALSE(ran.load());
  scope.reset();
}

TEST(EventLoopScopeTest, TimerArmedThroughAClosedScopeNeverFires) {
  EventLoop::Scope scope(EventLoop::Process());
  EventLoop::Scope witness(EventLoop::Process());
  std::atomic<bool> fired{false};
  RunOn(scope, [&] { scope.AddTimer(20 * kMicrosPerMilli, [&] { fired = true; }); });
  scope.Close();
  EventLoop::TimerId late = 1;
  RunOn(witness, [&] { late = scope.AddTimer(0, [&] { fired = true; }); });
  EXPECT_EQ(late, 0u);  // A closed scope arms nothing.
  // Outlive the cancelled timer's due time on a scope that is still open.
  Latch waited(1);
  RunOn(witness, [&] { witness.AddTimer(60 * kMicrosPerMilli, [&] { waited.CountDown(); }); });
  ASSERT_TRUE(waited.WaitFor(5 * kMicrosPerSecond));
  EXPECT_FALSE(fired.load());
}

TEST(EventLoopScopeTest, CloseFromItsOwnCallbackRunsInline) {
  EventLoop::Scope scope(EventLoop::Process());
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<int> fires{0};
  Latch closed(1);
  RunOn(scope, [&] {
    ASSERT_TRUE(scope.Add(fds[0], EPOLLIN, [&](uint32_t) {
                       ++fires;
                       char buffer[8];
                       [[maybe_unused]] ssize_t n = read(fds[0], buffer, sizeof(buffer));
                       scope.Close();  // Inline: posting and waiting would deadlock.
                       closed.CountDown();
                     }).ok());
  });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  ASSERT_TRUE(closed.WaitFor(5 * kMicrosPerSecond));
  // The fd left the loop with the scope: a second write dispatches nothing.
  ASSERT_EQ(write(fds[1], "y", 1), 1);
  EventLoop::Scope witness(EventLoop::Process());
  Latch waited(1);
  RunOn(witness, [&] { witness.AddTimer(20 * kMicrosPerMilli, [&] { waited.CountDown(); }); });
  ASSERT_TRUE(waited.WaitFor(5 * kMicrosPerSecond));
  EXPECT_EQ(fires.load(), 1);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopScopeTest, ASecondScopeKeepsWorkingAfterTheFirstCloses) {
  EventLoop::Scope first(EventLoop::Process());
  EventLoop::Scope second(EventLoop::Process());
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  Latch got(1);
  RunOn(second, [&] {
    ASSERT_TRUE(second.Add(fds[0], EPOLLIN, [&](uint32_t) {
                        char buffer[8];
                        [[maybe_unused]] ssize_t n = read(fds[0], buffer, sizeof(buffer));
                        got.CountDown();
                      }).ok());
  });
  first.Close();
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  ASSERT_TRUE(got.WaitFor(5 * kMicrosPerSecond));
  Latch fired(1);
  RunOn(second, [&] { second.AddTimer(5 * kMicrosPerMilli, [&] { fired.CountDown(); }); });
  ASSERT_TRUE(fired.WaitFor(5 * kMicrosPerSecond));
  RunOn(second, [&] { second.Remove(fds[0]); });
  close(fds[0]);
  close(fds[1]);
}

// --------------------------------------------------- Timers from any thread

// Starts `loop` on a thread and returns once Run() owns it, so the scope
// calls that follow are made off a running loop thread.
JoiningThread RunningLoopThread(EventLoop* loop) {
  Latch running(1);
  loop->Post([&running] { running.CountDown(); });
  JoiningThread thread("loop", [loop] { loop->Run(); });
  running.Wait();
  return thread;
}

TEST(EventLoopTest, TimersFireInDueOrder) {
  auto loop = MustCreate();
  EventLoop::Scope scope(loop.get());
  JoiningThread thread = RunningLoopThread(loop.get());
  std::mutex mu;
  std::vector<int> fired;
  Latch done(3);
  for (const int ms : {30, 10, 20}) {
    EXPECT_NE(scope.AddTimer(ms * kMicrosPerMilli,
                             [&, ms] {
                               {
                                 std::lock_guard<std::mutex> lock(mu);
                                 fired.push_back(ms);
                               }
                               done.CountDown();
                             }),
              0u);
  }
  ASSERT_TRUE(done.WaitFor(5 * kMicrosPerSecond));
  scope.Close();
  loop->Stop();
  thread.Join();
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
}

TEST(EventLoopTest, AddTimerFromAnotherThreadFiresOnTheLoopThread) {
  EventLoop::Scope scope(EventLoop::Process());
  std::atomic<bool> on_loop{false};
  Latch fired(1);
  Stopwatch watch;
  Micros elapsed = 0;
  ASSERT_FALSE(EventLoop::Process()->IsLoopThread());
  scope.AddTimer(10 * kMicrosPerMilli, [&] {
    elapsed = watch.ElapsedMicros();
    on_loop = EventLoop::Process()->IsLoopThread();
    fired.CountDown();
  });
  ASSERT_TRUE(fired.WaitFor(5 * kMicrosPerSecond));
  EXPECT_TRUE(on_loop.load());
  EXPECT_GE(elapsed, 10 * kMicrosPerMilli);  // The delay counts from the call.
}

TEST(EventLoopTest, CancelFromAnotherThreadBeforeTheDueTimeMeansNeverRuns) {
  EventLoop::Scope scope(EventLoop::Process());
  std::atomic<bool> ran{false};
  const EventLoop::TimerId id = scope.AddTimer(20 * kMicrosPerMilli, [&] { ran = true; });
  ASSERT_NE(id, 0u);
  scope.CancelTimer(id);
  scope.CancelTimer(id);  // Already gone: a no-op.
  // Outlive the cancelled timer's due time on the same scope.
  Latch later(1);
  scope.AddTimer(40 * kMicrosPerMilli, [&] { later.CountDown(); });
  ASSERT_TRUE(later.WaitFor(5 * kMicrosPerSecond));
  EXPECT_FALSE(ran.load());
}

TEST(EventLoopTest, SelfReArmingTimerRepeatsUntilItsScopeCloses) {
  EventLoop::Scope scope(EventLoop::Process());
  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    ticks.fetch_add(1);
    scope.AddTimer(2 * kMicrosPerMilli, tick);
  };
  scope.AddTimer(2 * kMicrosPerMilli, tick);
  const Micros give_up = MonotonicClock::Get()->NowMicros() + 5 * kMicrosPerSecond;
  while (ticks.load() < 3 && MonotonicClock::Get()->NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ticks.load(), 3);
  scope.Close();  // Pending or running: either way it never runs again.
  const int closed_at = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), closed_at);
}

Micros ProcessCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Micros>(ts.tv_sec) * kMicrosPerSecond + ts.tv_nsec / 1000;
}

TEST(EventLoopTest, FarFutureTimerDoesNotSpin) {
  auto loop = MustCreate();
  EventLoop::Scope scope(loop.get());
  JoiningThread thread = RunningLoopThread(loop.get());
  std::atomic<bool> far_ran{false};
  // The saturated due time of the largest delay, and one whose distance
  // crosses a whole 2^32 ms 30 ms from now: an int narrowing of the
  // timeout turns that crossing into a 1 ms burst of zero-timeout waits.
  scope.AddTimer(std::numeric_limits<Micros>::max(), [&] { far_ran = true; });
  scope.AddTimer(((int64_t{1} << 32) + 30) * kMicrosPerMilli, [&] { far_ran = true; });
  Latch near(1);
  scope.AddTimer(10 * kMicrosPerMilli, [&] { near.CountDown(); });
  ASSERT_TRUE(near.WaitFor(5 * kMicrosPerSecond));
  // The loop now sleeps toward the far timers: it should burn next to no
  // CPU over this interval.
  const Micros cpu_before = ProcessCpuMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(ProcessCpuMicros() - cpu_before, kMicrosPerMilli / 2);
  EXPECT_FALSE(far_ran.load());
  scope.Close();
  loop->Stop();
  thread.Join();
}

}  // namespace
}  // namespace dbase
