// Tests for the first-class invocation API: cancel-before-start launches
// zero instances, cancel mid-fan-out stops the remaining instances,
// deadlines and cancels terminate invocations at once (including ones
// parked on slow communication calls, via the stop hook), a cancel after
// the platform is gone does nothing, the blocking Invoke wrapper is
// deadline-aware instead of hanging forever (and refused on the reactor),
// interactive work overtakes batch backlog in the engine queues, every
// result callback runs on the reactor, a relaunch pending when the
// platform goes fails once, and a stop racing the first use of the stop
// fd wakes every waiter.
#include "src/runtime/invocation.h"

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/dsl/parser.h"
#include "src/func/builtins.h"
#include "src/http/services.h"
#include "src/runtime/dispatcher.h"
#include "src/runtime/fault.h"
#include "src/runtime/platform.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

PlatformConfig SmallPlatformConfig(int workers = 2) {
  PlatformConfig config;
  config.num_workers = workers;  // workers=2 → exactly one compute worker.
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList SingleArg(const std::string& param, const std::string& value) {
  DataSetList args;
  args.push_back(DataSet{param, {DataItem{"", value}}});
  return args;
}

DataSetList ManyItems(const std::string& param, int count) {
  DataSet set;
  set.name = param;
  for (int i = 0; i < count; ++i) {
    set.items.push_back(DataItem{"", "item" + std::to_string(i)});
  }
  DataSetList args;
  args.push_back(std::move(set));
  return args;
}

// Spins until released or cancelled (cooperative, so cancellation and
// shutdown cannot hang the engine).
dfunc::ComputeFunction BlockerBody(std::shared_ptr<std::atomic<bool>> started,
                                   std::shared_ptr<std::atomic<bool>> release) {
  return [started, release](dfunc::FunctionCtx& ctx) {
    started->store(true, std::memory_order_release);
    while (!release->load(std::memory_order_acquire) && !ctx.cancelled()) {
      std::this_thread::yield();
    }
    ctx.EmitOutput("out", "blocked");
    return dbase::OkStatus();
  };
}

TEST(InvocationTest, PriorityClassNamesRoundTrip) {
  for (auto priority : {PriorityClass::kInteractive, PriorityClass::kBatch}) {
    auto parsed = PriorityClassFromName(PriorityClassName(priority));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, priority);
  }
  EXPECT_FALSE(PriorityClassFromName("urgent").ok());
}

size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// Threads race RequestStop against the first use of the stop fd: every
// waiter finds the fd readable, even one that saw the stop flag set before
// it took the fd (a forked instance's wait does not check the flag), the
// stop hook runs once, and each fd closes with its control.
TEST(InvocationTest, StopRacingTheFirstStopFdWakesEveryWaiter) {
  const size_t fds_before = OpenFdCount();
  for (int round = 0; round < 500; ++round) {
    auto control = std::make_shared<InvocationControl>(
        round + 1, PriorityClass::kInteractive, 0, dbase::MonotonicClock::Get()->NowMicros());
    std::atomic<int> hook_runs{0};
    control->set_stop_hook([&hook_runs] { hook_runs.fetch_add(1); });
    std::atomic<bool> go{false};
    std::atomic<int> missed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&] {
        while (!go.load()) {
          std::this_thread::yield();
        }
        pollfd pfd{control->StopFd(), POLLIN, 0};
        // Long enough to tell a lost wake from a slow one.
        if (pfd.fd < 0 || poll(&pfd, 1, 5000) != 1) {
          missed.fetch_add(1);
        }
      });
    }
    for (const dbase::StatusCode reason :
         {dbase::StatusCode::kCancelled, dbase::StatusCode::kDeadlineExceeded}) {
      threads.emplace_back([&, reason] {
        while (!go.load()) {
          std::this_thread::yield();
        }
        control->RequestStop(reason);
      });
    }
    go.store(true);
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(missed.load(), 0) << "round " << round;
    EXPECT_EQ(hook_runs.load(), 1) << "round " << round;
  }
  EXPECT_EQ(OpenFdCount(), fds_before);
}

TEST(InvocationTest, ReportTracksLifecycle) {
  Platform platform(SmallPlatformConfig(4));
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  InvocationRequest request;
  request.composition = "Id";
  request.args = SingleArg("in", "x");
  request.priority = PriorityClass::kBatch;

  dbase::Latch latch(1);
  InvocationHandle handle = platform.Submit(std::move(request), [&](auto result) {
    EXPECT_TRUE(result.ok());
    latch.CountDown();
  });
  ASSERT_TRUE(latch.WaitFor(10 * dbase::kMicrosPerSecond));
  EXPECT_TRUE(handle.valid());
  EXPECT_GT(handle.id(), 0u);
  // MarkDone happens-before the callback, but report fields are published
  // with relaxed atomics — poll briefly.
  const dbase::Micros poll_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (!handle.done() && dbase::MonotonicClock::Get()->NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(handle.done());
  const InvocationReport report = handle.Report();
  EXPECT_EQ(report.phase, InvocationPhase::kSucceeded);
  EXPECT_EQ(report.priority, PriorityClass::kBatch);
  EXPECT_EQ(report.instances_launched, 1u);
  EXPECT_EQ(report.instances_aborted, 0u);
  EXPECT_GE(report.run_time_us, report.queue_time_us);
}

TEST(InvocationTest, CancelBeforeStartLaunchesNoInstances) {
  Platform platform(SmallPlatformConfig(2));  // One compute worker.
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  ASSERT_TRUE(
      platform.RegisterFunction({.name = "block", .body = BlockerBody(started, release)}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Block(in) => out { block(in = all in) => (out = out); }
composition Work(in) => out { echo(in = all in) => (out = out); }
)")
                  .ok());

  // Occupy the only compute worker so the victim invocation stays queued.
  dbase::Latch blocker_done(1);
  platform.Submit({"Block", SingleArg("in", "x")}, [&](auto) { blocker_done.CountDown(); });
  while (!started->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  dbase::Latch victim_done(1);
  dbase::Result<DataSetList> victim_result = dbase::Internal("unset");
  InvocationRequest request;
  request.composition = "Work";
  request.args = SingleArg("in", "victim");
  InvocationHandle handle = platform.Submit(std::move(request), [&](auto result) {
    victim_result = std::move(result);
    victim_done.CountDown();
  });
  // An off-reactor Submit posts the graph's start; wait until the victim's
  // instance is queued behind the blocker.
  while (platform.engine_stats().compute_queue_len == 0) {
    std::this_thread::yield();
  }
  handle.Cancel();  // Before its instance can reach the engine.

  release->store(true, std::memory_order_release);
  ASSERT_TRUE(blocker_done.WaitFor(10 * dbase::kMicrosPerSecond));
  ASSERT_TRUE(victim_done.WaitFor(10 * dbase::kMicrosPerSecond));

  ASSERT_FALSE(victim_result.ok());
  EXPECT_EQ(victim_result.status().code(), dbase::StatusCode::kCancelled);
  // The cancel fails the invocation at once, before the worker reaches its
  // queued instance — poll until the dequeue has dropped it.
  const dbase::Micros poll_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
  while ((handle.Report().instances_aborted == 0 ||
          platform.engine_stats().compute_aborted == 0) &&
         dbase::MonotonicClock::Get()->NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  const InvocationReport report = handle.Report();
  EXPECT_EQ(report.phase, InvocationPhase::kCancelled);
  // The cancelled invocation never entered a sandbox: its queued instance
  // was dropped at dequeue.
  EXPECT_EQ(report.instances_launched, 0u);
  EXPECT_EQ(report.instances_aborted, 1u);
  EXPECT_EQ(platform.dispatcher_stats().invocations_cancelled, 1u);
  EXPECT_GE(platform.engine_stats().compute_aborted, 1u);
  // Only the blocker actually executed.
  EXPECT_EQ(platform.engine_stats().compute_tasks, 1u);
}

TEST(InvocationTest, CancelMidFanOutStopsRemainingInstances) {
  constexpr int kInstances = 12;
  Platform platform(SmallPlatformConfig(2));  // One compute worker → serial.
  auto first_started = std::make_shared<std::atomic<bool>>(false);
  ASSERT_TRUE(platform
                  .RegisterFunction(
                      {.name = "slowpiece",
                       .body =
                           [first_started](dfunc::FunctionCtx& ctx) {
                             first_started->store(true, std::memory_order_release);
                             const dbase::Micros until =
                                 dbase::MonotonicClock::Get()->NowMicros() +
                                 50 * dbase::kMicrosPerMilli;
                             while (dbase::MonotonicClock::Get()->NowMicros() < until &&
                                    !ctx.cancelled()) {
                               std::this_thread::yield();
                             }
                             ctx.EmitOutput("tagged", "done");
                             return dbase::OkStatus();
                           }})
                  .ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Fan(in) => out { slowpiece(piece = each in) => (out = "
                      "tagged); }")
                  .ok());

  dbase::Latch done(1);
  dbase::Result<DataSetList> result = dbase::Internal("unset");
  InvocationRequest request;
  request.composition = "Fan";
  request.args = ManyItems("in", kInstances);
  InvocationHandle handle = platform.Submit(std::move(request), [&](auto r) {
    result = std::move(r);
    done.CountDown();
  });
  while (!first_started->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  handle.Cancel();  // Mid-fan-out: at least one instance is executing.
  ASSERT_TRUE(done.WaitFor(10 * dbase::kMicrosPerSecond));

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kCancelled);
  // The failure callback fires on the first cancelled instance; the queued
  // tail is aborted as the worker drains it — poll until it has.
  const dbase::Micros poll_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
  while (handle.Report().instances_launched + handle.Report().instances_aborted <
             static_cast<uint64_t>(kInstances) &&
         dbase::MonotonicClock::Get()->NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  // Every instance is accounted for, and the tail never executed.
  const InvocationReport report = handle.Report();
  EXPECT_EQ(report.instances_launched + report.instances_aborted,
            static_cast<uint64_t>(kInstances));
  EXPECT_LT(report.instances_launched, static_cast<uint64_t>(kInstances));
  EXPECT_GE(report.instances_aborted, 1u);
  EXPECT_EQ(platform.dispatcher_stats().invocations_cancelled, 1u);
}

TEST(InvocationTest, DeadlineStopsChainAndReturnsDeadlineExceeded) {
  Platform platform(SmallPlatformConfig(2));
  ASSERT_TRUE(platform
                  .RegisterFunction({.name = "spin",
                                     .body =
                                         [](dfunc::FunctionCtx& ctx) {
                                           const dbase::Micros until =
                                               dbase::MonotonicClock::Get()->NowMicros() +
                                               dbase::kMicrosPerSecond;
                                           while (dbase::MonotonicClock::Get()->NowMicros() <
                                                      until &&
                                                  !ctx.cancelled()) {
                                             std::this_thread::yield();
                                           }
                                           ctx.EmitOutput("out", "spun");
                                           return dbase::OkStatus();
                                         }})
                  .ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Chain(in) => out {
  spin(in = all in) => (mid = out);
  echo(in = all mid) => (out = out);
}
)")
                  .ok());

  InvocationRequest request;
  request.composition = "Chain";
  request.args = SingleArg("in", "x");
  request.deadline_us = InvocationRequest::DeadlineIn(50 * dbase::kMicrosPerMilli);

  const dbase::Stopwatch watch;
  auto result = platform.Invoke(std::move(request));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
  // Well before the 1 s spin: the deadline preempted, not the spin ending.
  EXPECT_LT(watch.ElapsedMicros(), 800 * dbase::kMicrosPerMilli);
  // The second node of the chain never launched an instance.
  EXPECT_EQ(platform.dispatcher_stats().compute_instances, 1u);
  // The blocking wrapper can return a beat before FailLocked records the
  // terminal — poll briefly.
  const dbase::Micros poll_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
  while (platform.dispatcher_stats().invocations_deadline_exceeded == 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(platform.dispatcher_stats().invocations_deadline_exceeded, 1u);
}

TEST(InvocationTest, FunctionTimeoutDoesNotCountAsInvocationDeadline) {
  // A per-function spec timeout also surfaces as kDeadlineExceeded, but
  // only the invocation-level deadline may feed the deadline counter —
  // monitoring must distinguish "the workload timed out" from "the client
  // deadline killed it".
  Platform platform(SmallPlatformConfig(2));
  dfunc::FunctionSpec hog;
  hog.name = "hog";
  hog.timeout_us = 20 * dbase::kMicrosPerMilli;
  hog.body = [](dfunc::FunctionCtx& ctx) {
    const dbase::Micros until =
        dbase::MonotonicClock::Get()->NowMicros() + dbase::kMicrosPerSecond;
    while (dbase::MonotonicClock::Get()->NowMicros() < until && !ctx.cancelled()) {
      std::this_thread::yield();
    }
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(hog)).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition H(in) => out { hog(in = all in) => (out = out); }")
                  .ok());
  auto result = platform.Invoke({"H", SingleArg("in", "x")});  // No deadline.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(platform.dispatcher_stats().invocations_deadline_exceeded, 0u);
  EXPECT_EQ(platform.dispatcher_stats().invocations_failed, 1u);
}

TEST(InvocationTest, ReaperFailsDeadlineWhileParkedOnCommCall) {
  PlatformConfig config = SmallPlatformConfig(2);
  config.sleep_for_modeled_latency = true;  // The comm call really parks.
  Platform platform(config);
  platform.mesh().Register(
      "slow.internal", std::make_shared<dhttp::EchoService>(),
      dhttp::LatencyModel{.base_us = 500 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                          .jitter_sigma = 0.0});
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Call(req) => resp { HTTP(Request = each req) => (resp = "
                      "Response); }")
                  .ok());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://slow.internal/";
  req.body = "ping";

  InvocationRequest request;
  request.composition = "Call";
  request.args = SingleArg("req", req.Serialize());
  request.deadline_us = InvocationRequest::DeadlineIn(50 * dbase::kMicrosPerMilli);

  const dbase::Stopwatch watch;
  auto result = platform.Invoke(std::move(request));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
  // No compute instance exists to observe the deadline — only the reaper
  // can fail this invocation, and it must do so near the deadline, not
  // after the 500 ms modelled network latency.
  EXPECT_LT(watch.ElapsedMicros(), 400 * dbase::kMicrosPerMilli);
}

TEST(InvocationTest, CancelWhileParkedOnCommCallEndsAtOnce) {
  PlatformConfig config = SmallPlatformConfig(2);
  config.sleep_for_modeled_latency = true;  // The comm call really parks.
  Platform platform(config);
  platform.mesh().Register(
      "slow.internal", std::make_shared<dhttp::EchoService>(),
      dhttp::LatencyModel{.base_us = 500 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                          .jitter_sigma = 0.0});
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Call(req) => resp { HTTP(Request = each req) => (resp = "
                      "Response); }")
                  .ok());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://slow.internal/";
  req.body = "ping";

  dbase::Latch done(1);
  std::atomic<int> code{-1};
  std::atomic<dbase::Micros> fired_us{0};
  InvocationHandle handle =
      platform.Submit({"Call", SingleArg("req", req.Serialize())}, [&](auto result) {
        code.store(static_cast<int>(result.status().code()));
        fired_us.store(dbase::MonotonicClock::Get()->NowMicros());
        done.CountDown();
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const dbase::Micros cancelled_us = dbase::MonotonicClock::Get()->NowMicros();
  handle.Cancel();
  ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));

  EXPECT_EQ(code.load(), static_cast<int>(dbase::StatusCode::kCancelled));
  // The stop hook ends the invocation; the 500 ms modelled latency does not.
  EXPECT_LT(fired_us.load() - cancelled_us, 100 * dbase::kMicrosPerMilli);
  EXPECT_EQ(handle.Report().phase, InvocationPhase::kCancelled);
  EXPECT_EQ(platform.dispatcher_stats().invocations_cancelled, 1u);
  EXPECT_EQ(platform.dispatcher_stats().inflight_interactive, 0u);
}

TEST(InvocationTest, CancelAfterPlatformDestroyedIsANoOp) {
  std::atomic<int> callbacks{0};
  InvocationHandle finished;
  InvocationHandle parked;
  {
    PlatformConfig config = SmallPlatformConfig(2);
    config.sleep_for_modeled_latency = true;
    Platform platform(config);
    platform.mesh().Register(
        "slow.internal", std::make_shared<dhttp::EchoService>(),
        dhttp::LatencyModel{.base_us = 500 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                            .jitter_sigma = 0.0});
    ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Work(in) => out { echo(in = all in) => (out = out); }
composition Call(req) => resp { HTTP(Request = each req) => (resp = Response); }
)")
                    .ok());
    dbase::Latch done(1);
    InvocationRequest request{"Work", SingleArg("in", "x")};
    request.deadline_us = InvocationRequest::DeadlineIn(10 * dbase::kMicrosPerSecond);
    finished = platform.Submit(std::move(request), [&](auto result) {
      EXPECT_TRUE(result.ok());
      callbacks.fetch_add(1);
      done.CountDown();
    });
    ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));

    // Still parked when the platform goes: its drain completes the call.
    dhttp::HttpRequest req;
    req.method = dhttp::Method::kPost;
    req.target = "http://slow.internal/";
    req.body = "ping";
    parked = platform.Submit({"Call", SingleArg("req", req.Serialize())},
                             [&](auto) { callbacks.fetch_add(1); });
  }
  EXPECT_EQ(callbacks.load(), 2);
  const InvocationPhase finished_phase = finished.Report().phase;
  const InvocationPhase parked_phase = parked.Report().phase;

  // Both stop hooks post into the destroyed dispatcher's closed scope.
  finished.Cancel();
  parked.Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(callbacks.load(), 2);
  EXPECT_EQ(finished.Report().phase, finished_phase);
  EXPECT_EQ(parked.Report().phase, parked_phase);
}

TEST(InvocationTest, BlockingInvokeReturnsDeadlineExceededInsteadOfHanging) {
  // A raw dispatcher with a tight blocking-wait cap: even with no request
  // deadline, the blocking wrapper must not wait forever on a lost or slow
  // completion.
  Registry registry;
  dhttp::ServiceMesh mesh;
  MemoryAccountant accountant;
  WorkerSet::Config worker_config;
  worker_config.num_workers = 2;
  WorkerSet workers(worker_config, &mesh);
  workers.set_sleep_for_modeled_latency(false);

  dfunc::FunctionSpec sleeper;
  sleeper.name = "sleeper";
  sleeper.body = [](dfunc::FunctionCtx&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));  // Ignores cancel.
    return dbase::OkStatus();
  };
  ASSERT_TRUE(registry.Add(std::move(sleeper)).ok());
  auto asts = ddsl::ParseCompositions(
      "composition Nap(in) => out { sleeper(in = all in) => (out = out); }");
  ASSERT_TRUE(asts.ok());
  auto graph = ddsl::CompositionGraph::FromAst((*asts)[0]);
  ASSERT_TRUE(graph.ok());
  std::vector<ddsl::CompositionGraph> graphs;
  graphs.push_back(std::move(graph).value());
  ASSERT_TRUE(registry.Add(std::move(graphs)).ok());

  Dispatcher::Config config;
  config.max_blocking_wait_us = 50 * dbase::kMicrosPerMilli;
  Dispatcher dispatcher(&registry, &workers, &accountant, config);

  const dbase::Stopwatch watch;
  auto result = dispatcher.Invoke({"Nap", SingleArg("in", "x")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kDeadlineExceeded);
  EXPECT_LT(watch.ElapsedMicros(), 300 * dbase::kMicrosPerMilli);
  // Let the sleeper drain before tearing the workers down.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(InvocationTest, InteractiveOvertakesBatchBacklog) {
  constexpr int kBatch = 30;
  Platform platform(SmallPlatformConfig(2));  // One compute worker → serial.
  ASSERT_TRUE(platform
                  .RegisterFunction({.name = "work",
                                     .body =
                                         [](dfunc::FunctionCtx& ctx) {
                                           dbase::SpinFor(5 * dbase::kMicrosPerMilli);
                                           ctx.EmitOutput("out", "done");
                                           return dbase::OkStatus();
                                         }})
                  .ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition W(in) => out { work(in = all in) => (out = out); }")
                  .ok());

  std::atomic<int> batch_done{0};
  std::atomic<int> batch_done_when_interactive_finished{-1};
  dbase::Latch all_done(kBatch + 1);
  for (int i = 0; i < kBatch; ++i) {
    InvocationRequest request;
    request.composition = "W";
    request.args = SingleArg("in", "b" + std::to_string(i));
    request.priority = PriorityClass::kBatch;
    platform.Submit(std::move(request), [&](auto) {
      batch_done.fetch_add(1, std::memory_order_relaxed);
      all_done.CountDown();
    });
  }
  InvocationRequest interactive;
  interactive.composition = "W";
  interactive.args = SingleArg("in", "urgent");
  interactive.priority = PriorityClass::kInteractive;
  platform.Submit(std::move(interactive), [&](auto result) {
    EXPECT_TRUE(result.ok());
    batch_done_when_interactive_finished.store(batch_done.load(std::memory_order_relaxed),
                                               std::memory_order_relaxed);
    all_done.CountDown();
  });
  ASSERT_TRUE(all_done.WaitFor(30 * dbase::kMicrosPerSecond));
  // Submitted last, but the urgent lane pops first: the interactive invoke
  // overtook (almost) the entire batch backlog instead of waiting out
  // ~30 × 5 ms behind it.
  EXPECT_GE(batch_done_when_interactive_finished.load(), 0);
  EXPECT_LE(batch_done_when_interactive_finished.load(), kBatch / 3);
}

TEST(InvocationTest, StatsExposePerClassInflightGauges) {
  Platform platform(SmallPlatformConfig(2));
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  ASSERT_TRUE(
      platform.RegisterFunction({.name = "block", .body = BlockerBody(started, release)}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition B(in) => out { block(in = all in) => (out = out); }")
                  .ok());
  dbase::Latch done(1);
  InvocationRequest request;
  request.composition = "B";
  request.args = SingleArg("in", "x");
  request.priority = PriorityClass::kBatch;
  platform.Submit(std::move(request), [&](auto) { done.CountDown(); });
  while (!started->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  EXPECT_EQ(platform.dispatcher_stats().inflight_batch, 1u);
  EXPECT_EQ(platform.dispatcher_stats().inflight_interactive, 0u);
  release->store(true, std::memory_order_release);
  ASSERT_TRUE(done.WaitFor(10 * dbase::kMicrosPerSecond));
  const dbase::Micros poll_deadline =
      dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
  while (platform.dispatcher_stats().inflight_batch != 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < poll_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(platform.dispatcher_stats().inflight_batch, 0u);
}

// The dispatcher runs on the reactor: whatever ends an invocation, its
// callback runs there.
TEST(InvocationTest, CallbacksRunOnTheReactor) {
  FaultInjector::Get().Reset();
  Platform platform(SmallPlatformConfig(3));  // One comm worker.
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Id(in) => out { echo(in = all in) => (out = out); }
composition Call(req) => resp { HTTP(Request = each req) => (resp = Response); }
composition Outer(in) => out { Id(in = all in) => (out = out); }
composition Ghost(in) => out { nowhere(in = all in) => (out = out); }
)")
                  .ok());
  platform.mesh().Register("echo.internal", std::make_shared<dhttp::EchoService>());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://echo.internal/";
  req.body = "ping";

  // Submits one invocation from this thread and reports whether its
  // callback ran on the reactor, and with which status.
  const auto on_reactor = [&](InvocationRequest request) {
    dbase::Latch done(1);
    bool loop_thread = false;
    dbase::StatusCode code = dbase::StatusCode::kInternal;
    platform.Submit(std::move(request), [&](dbase::Result<DataSetList> result) {
      loop_thread = dbase::EventLoop::Process()->IsLoopThread();
      code = result.status().code();
      done.CountDown();
    });
    EXPECT_TRUE(done.WaitFor(10 * dbase::kMicrosPerSecond));
    return std::make_pair(loop_thread, code);
  };
  using Seen = std::pair<bool, dbase::StatusCode>;
  EXPECT_EQ(on_reactor({"Id", SingleArg("in", "x")}), Seen(true, dbase::StatusCode::kOk));
  EXPECT_EQ(on_reactor({"Call", SingleArg("req", req.Serialize())}),
            Seen(true, dbase::StatusCode::kOk));
  EXPECT_EQ(on_reactor({"Outer", SingleArg("in", "x")}), Seen(true, dbase::StatusCode::kOk));
  FaultInjector::Get().Arm(FaultPoint::kTransientResourceExhausted,
                           FaultPlan{.every_n = 1, .limit = 1});
  EXPECT_EQ(on_reactor({"Id", SingleArg("in", "retried")}), Seen(true, dbase::StatusCode::kOk));
  FaultInjector::Get().Reset();
  EXPECT_EQ(platform.dispatcher_stats().retries_attempted, 1u);
  EXPECT_EQ(on_reactor({"Ghost", SingleArg("in", "x")}),
            Seen(true, dbase::StatusCode::kNotFound));
  EXPECT_EQ(on_reactor({"Missing", SingleArg("in", "x")}),
            Seen(true, dbase::StatusCode::kNotFound));

  // On the reactor the blocking Invoke would wait on itself: it submits
  // nothing and fails at once.
  const uint64_t started = platform.dispatcher_stats().invocations_started;
  dbase::EventLoop::Scope scope(dbase::EventLoop::Process());
  dbase::Result<DataSetList> blocking = dbase::Internal("unset");
  ASSERT_TRUE(scope.Run([&] { blocking = platform.Invoke({"Id", SingleArg("in", "x")}); }));
  EXPECT_EQ(blocking.status().code(), dbase::StatusCode::kFailedPrecondition);
  EXPECT_EQ(platform.dispatcher_stats().invocations_started, started);
}

// A relaunch still in its backoff when the platform goes fails with the
// failure that triggered it, exactly once, and the teardown does not wait
// out the backoff.
TEST(InvocationTest, DestroyingThePlatformFailsAPendingRelaunchOnce) {
  FaultInjector::Get().Reset();
  std::atomic<int> callbacks{0};
  std::atomic<int> code{-1};
  dbase::Stopwatch teardown;
  {
    PlatformConfig config = SmallPlatformConfig(2);
    config.retry.backoff_base_us = 10 * dbase::kMicrosPerSecond;
    config.retry.backoff_cap_us = 10 * dbase::kMicrosPerSecond;
    Platform platform(config);
    ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    ASSERT_TRUE(platform
                    .RegisterCompositionDsl(
                        "composition Id(in) => out { echo(in = all in) => (out = out); }")
                    .ok());
    FaultInjector::Get().Arm(FaultPoint::kTransientResourceExhausted,
                             FaultPlan{.every_n = 1, .limit = 1});
    platform.Submit({"Id", SingleArg("in", "x")}, [&](dbase::Result<DataSetList> result) {
      code.store(static_cast<int>(result.status().code()));
      callbacks.fetch_add(1);
    });
    const dbase::Micros give_up =
        dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
    while (platform.dispatcher_stats().retries_attempted == 0 &&
           dbase::MonotonicClock::Get()->NowMicros() < give_up) {
      std::this_thread::yield();
    }
    ASSERT_EQ(platform.dispatcher_stats().retries_attempted, 1u);
    EXPECT_EQ(callbacks.load(), 0);
    teardown.Restart();
  }
  EXPECT_LT(teardown.ElapsedMicros(), 1 * dbase::kMicrosPerSecond);
  FaultInjector::Get().Reset();
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(code.load(), static_cast<int>(dbase::StatusCode::kResourceExhausted));
}

}  // namespace
}  // namespace dandelion
