// Tests for the pre-warmed sandbox pool: the PrewarmPolicy decision logic
// under a fake clock, the SandboxPool acquire/scrub/return lifecycle on
// both the thread and process backends, depth clamps and the interactive
// reserve, a dead template absorbed without SIGPIPE, the worker's CPU while
// a process child runs (cold and pooled), pool-miss fallback to the cold
// path, and the invocation edge cases the pool introduces (cancel racing
// completion on a pooled sandbox, deadline expiring while the task is still
// queued, priority bypass).
#include <gtest/gtest.h>
#include <sched.h>
#include <signal.h>
#include <time.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/thread.h"
#include "src/func/registry.h"
#include "src/runtime/invocation.h"
#include "src/runtime/jail.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/platform.h"
#include "src/runtime/sandbox_pool.h"

namespace {

using dandelion::IsolationBackend;
using dandelion::PriorityClass;
using dandelion::SandboxPool;
using dandelion::SandboxPoolStats;
using dandelion::WarmSandbox;
using dbase::kMicrosPerMilli;
using dbase::kMicrosPerSecond;
using dbase::Micros;

// --------------------------------------------------- PrewarmPolicy units

dpolicy::PrewarmOptions TestPrewarmOptions() {
  dpolicy::PrewarmOptions options;
  options.ewma_alpha = 0.5;
  options.provision_window_us = 100 * kMicrosPerMilli;
  options.headroom = 1.0;
  options.scale_to_zero_after_us = 1 * kMicrosPerSecond;
  options.max_depth = 16;
  return options;
}

TEST(PrewarmPolicyTest, FirstTickPrimesWithoutRate) {
  dpolicy::PrewarmPolicy policy(TestPrewarmOptions());
  // No arrivals yet: nothing to keep warm.
  auto decision = policy.Decide({.now_us = 0, .arrivals = 0});
  EXPECT_EQ(decision.target_depth, 0);
  policy.Reset();
  // Arrivals already seen at priming: keep one warm while the EWMA forms.
  decision = policy.Decide({.now_us = 0, .arrivals = 3});
  EXPECT_EQ(decision.target_depth, 1);
  EXPECT_STREQ(decision.reason, "warming");
}

TEST(PrewarmPolicyTest, EwmaWarmsUpTowardArrivalRate) {
  dpolicy::PrewarmPolicy policy(TestPrewarmOptions());
  // 100 arrivals per 100 ms tick = 1000/s; window 100 ms, headroom 1.0
  // → steady-state target 100 (clamped to max_depth 16).
  Micros now = 0;
  uint64_t arrivals = 0;
  policy.Decide({.now_us = now, .arrivals = arrivals});
  int last_target = 0;
  for (int tick = 0; tick < 10; ++tick) {
    now += 100 * kMicrosPerMilli;
    arrivals += 100;
    const auto decision = policy.Decide({.now_us = now, .arrivals = arrivals});
    EXPECT_GE(decision.target_depth, last_target);  // Monotone warm-up.
    last_target = decision.target_depth;
  }
  EXPECT_EQ(last_target, 16);  // Clamped at options.max_depth.
  const auto steady = policy.Decide({.now_us = now + 100 * kMicrosPerMilli,
                                     .arrivals = arrivals + 100});
  EXPECT_NEAR(steady.rate_per_sec, 1000.0, 100.0);
  EXPECT_STREQ(steady.reason, "track");
}

TEST(PrewarmPolicyTest, ScalesToZeroAfterIdleAndRestartsCleanly) {
  dpolicy::PrewarmPolicy policy(TestPrewarmOptions());
  Micros now = 0;
  policy.Decide({.now_us = now, .arrivals = 10});
  now += 100 * kMicrosPerMilli;
  auto decision = policy.Decide({.now_us = now, .arrivals = 60});
  EXPECT_GE(decision.target_depth, 1);

  // Idle past scale_to_zero_after_us: depth 0 and the rate estimate resets.
  now += 2 * kMicrosPerSecond;
  decision = policy.Decide({.now_us = now, .arrivals = 60});
  EXPECT_EQ(decision.target_depth, 0);
  EXPECT_STREQ(decision.reason, "scale-to-zero");
  EXPECT_EQ(decision.rate_per_sec, 0.0);

  // A later burst re-warms from scratch instead of inheriting the pre-idle
  // estimate: the first post-burst decision keeps at least one warm.
  now += 100 * kMicrosPerMilli;
  decision = policy.Decide({.now_us = now, .arrivals = 70});
  EXPECT_GE(decision.target_depth, 1);
  EXPECT_LE(decision.target_depth, 16);
}

TEST(PrewarmPolicyTest, MinDepthFloorsTheTarget) {
  dpolicy::PrewarmOptions options = TestPrewarmOptions();
  options.min_depth = 2;
  dpolicy::PrewarmPolicy policy(options);
  const auto decision = policy.Decide({.now_us = 0, .arrivals = 0});
  EXPECT_EQ(decision.target_depth, 2);
}

// ------------------------------------------------- SandboxPool lifecycle

dfunc::FunctionSpec EchoSpec(const char* name = "echo") {
  dfunc::FunctionSpec spec;
  spec.name = name;
  spec.context_bytes = 1 << 20;
  spec.body = [](dfunc::FunctionCtx& ctx) {
    auto input = ctx.SingleInput("in");
    ctx.EmitOutput("out", input.ok() ? *input : "none");
    return dbase::OkStatus();
  };
  return spec;
}

SandboxPool::Config PoolConfig(IsolationBackend backend) {
  SandboxPool::Config config;
  config.backend = backend;
  config.max_depth_per_function = 4;
  config.max_total = 8;
  config.prewarm = TestPrewarmOptions();
  return config;
}

// Acquire on an empty pool is a miss; after a Tick observed arrivals the
// shelf fills; a hit executes with pool_hit timings and Release re-shelves.
void RunLifecycle(IsolationBackend backend) {
  SandboxPool pool(PoolConfig(backend), nullptr);
  const dfunc::FunctionSpec spec = EchoSpec();

  EXPECT_EQ(pool.Acquire(spec, PriorityClass::kInteractive), nullptr);  // Cold miss.
  pool.Tick(0);  // Primes the policy with the arrival above.
  pool.Tick(100 * kMicrosPerMilli);
  SandboxPoolStats stats = pool.Stats();
  ASSERT_GE(stats.shelved, 1) << "policy tick should have pre-warmed the shelf";
  EXPECT_GE(stats.prewarm_fills, 1u);

  auto warm = pool.Acquire(spec, PriorityClass::kInteractive);
  ASSERT_NE(warm, nullptr);
  ASSERT_TRUE(warm->context()
                  ->StoreInputSets({dfunc::DataSet{"in", {dfunc::DataItem{"", "ping"}}}})
                  .ok());
  const dandelion::ExecOutcome outcome = warm->Execute(dandelion::SandboxOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
  ASSERT_EQ(outcome.outputs.size(), 1u);
  EXPECT_EQ(outcome.outputs[0].items[0].data, "ping");
  EXPECT_TRUE(outcome.timings.pool_hit);
  EXPECT_EQ(outcome.timings.load_us, 0);
  // A pool hit's setup is one go-channel send (process) or nothing (thread) —
  // far below the cold fork.
  EXPECT_LT(outcome.timings.setup_us, 5 * kMicrosPerMilli);

  pool.Release(std::move(warm));
  stats = pool.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.leased, 0);
  EXPECT_GE(stats.recycled, 1u);

  // The recycled sandbox is scrubbed: its context reads as zeros (header
  // magic gone), indistinguishable from a fresh mapping.
  auto again = pool.Acquire(spec, PriorityClass::kInteractive);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->context()->ReadHeader().magic, 0u);
  EXPECT_EQ(again->context()->touched(), 0u);

  // And it still executes correctly after the scrub.
  ASSERT_TRUE(again->context()
                  ->StoreInputSets({dfunc::DataSet{"in", {dfunc::DataItem{"", "pong"}}}})
                  .ok());
  const dandelion::ExecOutcome second = again->Execute(dandelion::SandboxOptions{});
  ASSERT_TRUE(second.status.ok()) << second.status.message();
  EXPECT_EQ(second.outputs[0].items[0].data, "pong");
  pool.Release(std::move(again));
  pool.Shutdown();
}

TEST(SandboxPoolTest, LifecycleThreadBackend) { RunLifecycle(IsolationBackend::kThread); }

TEST(SandboxPoolTest, LifecycleProcessBackend) { RunLifecycle(IsolationBackend::kProcess); }

// Large extents on a MAP_SHARED (process-backend) context take the
// madvise scrub path, where MADV_DONTNEED would silently leave the bytes
// alive in the backing shmem object — the scrub must hole-punch instead.
TEST(SandboxPoolTest, SharedContextScrubZeroesLargeExtents) {
  auto context_result =
      dandelion::MemoryContext::Create(1 << 20, nullptr, /*shared=*/true);
  ASSERT_TRUE(context_result.ok());
  std::unique_ptr<dandelion::MemoryContext> context = std::move(context_result).value();
  const std::string payload(128 * 1024, 'S');  // > ContextPool::kZeroExtentBytes.
  ASSERT_TRUE(context->WriteAt(0, payload).ok());
  context->ScrubForReuse(payload.size());
  auto view = context->ReadAt(0, payload.size());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->find_first_not_of('\0'), std::string_view::npos)
      << "shared context still holds pre-scrub bytes";
  EXPECT_EQ(context->touched(), 0u);
}

// End-to-end on the process backend: a pooled invocation whose inputs and
// outputs exceed the small-extent memset regime must leave no residue in
// the context the next lease sees.
TEST(SandboxPoolTest, ProcessBackendScrubsLargePayloadAcrossLeases) {
  SandboxPool pool(PoolConfig(IsolationBackend::kProcess), nullptr);
  const dfunc::FunctionSpec spec = EchoSpec();
  pool.Acquire(spec, PriorityClass::kInteractive);  // Prime the arrival EWMA.
  pool.Tick(0);
  pool.Tick(100 * kMicrosPerMilli);
  ASSERT_GE(pool.Stats().shelved, 1);

  auto warm = pool.Acquire(spec, PriorityClass::kInteractive);
  ASSERT_NE(warm, nullptr);
  const std::string secret(128 * 1024, 'S');
  ASSERT_TRUE(warm->context()
                  ->StoreInputSets({dfunc::DataSet{"in", {dfunc::DataItem{"", secret}}}})
                  .ok());
  const dandelion::ExecOutcome outcome = warm->Execute(dandelion::SandboxOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
  ASSERT_EQ(outcome.outputs[0].items[0].data, secret);
  pool.Release(std::move(warm));

  auto again = pool.Acquire(spec, PriorityClass::kInteractive);
  ASSERT_NE(again, nullptr);
  // Scan well past the previous invocation's extent: everything must read
  // as zeros — no state crosses instances.
  auto view = again->context()->ReadAt(0, 256 * 1024);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->find_first_not_of('\0'), std::string_view::npos)
      << "previous invocation's payload leaked into the next lease";
  pool.Release(std::move(again));
  pool.Shutdown();
}

// A process pool with one armed template for `spec`, leased.
std::shared_ptr<WarmSandbox> LeaseProcessTemplate(SandboxPool& pool,
                                                  const dfunc::FunctionSpec& spec) {
  pool.Acquire(spec, PriorityClass::kInteractive);  // Prime the arrival EWMA.
  pool.Tick(0);
  pool.Tick(100 * kMicrosPerMilli);
  return pool.Acquire(spec, PriorityClass::kInteractive);
}

// The go channel is a socket written with MSG_NOSIGNAL: a template that died
// before dispatch is an EPIPE absorbed as kPoolChildLost, never a SIGPIPE,
// and building a process pool leaves the process's signal disposition alone.
TEST(SandboxPoolTest, DeadTemplateIsChildLostWithoutTouchingSigpipe) {
  struct sigaction default_action = {};
  default_action.sa_handler = SIG_DFL;
  sigemptyset(&default_action.sa_mask);
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGPIPE, &default_action, &previous), 0);
  {
    SandboxPool pool(PoolConfig(IsolationBackend::kProcess), nullptr);
    const dfunc::FunctionSpec spec = EchoSpec();
    auto warm = LeaseProcessTemplate(pool, spec);
    ASSERT_NE(warm, nullptr);
    ASSERT_TRUE(warm->context()
                    ->StoreInputSets({dfunc::DataSet{"in", {dfunc::DataItem{"", "ping"}}}})
                    .ok());
    warm->SimulateTemplateDeath();
    const dandelion::ExecOutcome outcome = warm->Execute(dandelion::SandboxOptions{});
    EXPECT_EQ(outcome.failure, dpolicy::FailureKind::kPoolChildLost);
    EXPECT_EQ(outcome.status.code(), dbase::StatusCode::kUnavailable);
    pool.Release(std::move(warm));
  }
  struct sigaction now = {};
  ASSERT_EQ(sigaction(SIGPIPE, nullptr, &now), 0);
  EXPECT_EQ(now.sa_handler, SIG_DFL);
  sigaction(SIGPIPE, &previous, nullptr);
}

Micros ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Micros>(ts.tv_sec) * kMicrosPerSecond + ts.tv_nsec / 1000;
}

// The engine worker sleeps on the child instead of spinning: across a
// 100 ms child, the calling thread burns well under 10 ms of CPU on the
// cold executor and on a pooled template alike.
//
// The caller and the child are pinned to different cores, as on a busy
// engine where the child does not get the worker's core: sharing one core,
// a spinning waiter would hand it to the child on every yield and look
// idle. The wait is measured, not the confinement (jail_test covers that),
// so the jail is off: it would kill the child for sched_setaffinity, and
// sanitizer runtimes make syscalls of their own.
class ProcessWaitCpuTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved_), &saved_), 0);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpus.push_back(cpu);
      }
    }
    if (cpus.size() < 2) {
      GTEST_SKIP() << "needs two usable cores";
    }
    child_cpu_ = cpus[1];
    ASSERT_TRUE(PinTo(cpus[0]));
    pinned_ = true;
    dandelion::SetSyscallJailEnabled(false);
  }

  void TearDown() override {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    dandelion::SetSyscallJailEnabled(jail_was_enabled_);
  }

  // Pins the calling thread (or a single-threaded child) to one core.
  static bool PinTo(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  int child_cpu_ = -1;

 private:
  const bool jail_was_enabled_ = dandelion::SyscallJailEnabled();
  cpu_set_t saved_;
  bool pinned_ = false;
};

TEST_P(ProcessWaitCpuTest, WaitingOnTheChildCostsNoCpu) {
  const bool pooled = GetParam();
  dfunc::FunctionSpec spec = EchoSpec("spin");
  spec.body = [child_cpu = child_cpu_](dfunc::FunctionCtx& ctx) {
    if (!PinTo(child_cpu)) {
      return dbase::Internal("could not pin the child");
    }
    dbase::SpinFor(100 * kMicrosPerMilli);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  SandboxPool pool(PoolConfig(IsolationBackend::kProcess), nullptr);
  const auto cold = dandelion::CreateSandboxExecutor(IsolationBackend::kProcess);
  std::shared_ptr<WarmSandbox> warm;
  std::shared_ptr<dandelion::MemoryContext> context;
  if (pooled) {
    warm = LeaseProcessTemplate(pool, spec);
    ASSERT_NE(warm, nullptr);
    context = warm->context();
  } else {
    auto created = dandelion::MemoryContext::Create(spec.context_bytes, nullptr,
                                                    /*shared=*/true);
    ASSERT_TRUE(created.ok());
    context = std::move(created).value();
  }
  ASSERT_TRUE(context->StoreInputSets({dfunc::DataSet{"in", {dfunc::DataItem{"", "x"}}}}).ok());

  const dbase::Stopwatch wall;
  const Micros cpu_before = ThreadCpuMicros();
  const dandelion::ExecOutcome outcome =
      pooled ? warm->Execute(dandelion::SandboxOptions{})
             : cold->Execute(spec, *context, dandelion::SandboxOptions{});
  const Micros cpu = ThreadCpuMicros() - cpu_before;

  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
  EXPECT_EQ(outcome.outputs[0].items[0].data, "spun");
  EXPECT_GE(wall.ElapsedMicros(), 100 * kMicrosPerMilli);  // The call spanned the child.
  EXPECT_LT(cpu, 10 * kMicrosPerMilli) << "worker CPU while the child ran: " << cpu << " us";
  pool.Release(std::move(warm));
}

INSTANTIATE_TEST_SUITE_P(ColdAndPooled, ProcessWaitCpuTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Pooled" : "Cold";
                         });

TEST(SandboxPoolTest, DepthClampsPerFunctionAndGlobally) {
  SandboxPool::Config config = PoolConfig(IsolationBackend::kThread);
  config.max_depth_per_function = 2;
  config.max_total = 3;
  // A policy that always wants a deep shelf, to push against the clamps.
  config.policy_factory = [] {
    dpolicy::PrewarmOptions options;
    options.min_depth = 100;
    options.max_depth = 100;
    return std::make_unique<dpolicy::PrewarmPolicy>(options);
  };
  SandboxPool pool(config, nullptr);

  const dfunc::FunctionSpec a = EchoSpec("fn_a");
  const dfunc::FunctionSpec b = EchoSpec("fn_b");
  pool.Acquire(a, PriorityClass::kInteractive);
  pool.Acquire(b, PriorityClass::kInteractive);
  pool.Tick(0);
  pool.Tick(100 * kMicrosPerMilli);
  const SandboxPoolStats stats = pool.Stats();
  // Per-function clamp (2 each) and the global cap (3) both hold.
  EXPECT_LE(stats.shelved, 3);
  EXPECT_GE(stats.shelved, 2);
  pool.Shutdown();
  EXPECT_EQ(pool.Stats().shelved, 0);
}

TEST(SandboxPoolTest, ScaleToZeroRetiresShelvedSandboxes) {
  SandboxPool pool(PoolConfig(IsolationBackend::kThread), nullptr);
  const dfunc::FunctionSpec spec = EchoSpec();
  pool.Acquire(spec, PriorityClass::kInteractive);
  pool.Tick(0);
  pool.Tick(100 * kMicrosPerMilli);
  ASSERT_GE(pool.Stats().shelved, 1);
  // Idle past scale_to_zero_after_us: the next tick retires the shelf.
  pool.Tick(100 * kMicrosPerMilli + 2 * kMicrosPerSecond);
  const SandboxPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.shelved, 0);
  EXPECT_GE(stats.retired, 1u);
}

TEST(SandboxPoolTest, InteractiveReserveBypassesBatch) {
  SandboxPool::Config config = PoolConfig(IsolationBackend::kThread);
  config.interactive_reserve = 1;
  SandboxPool pool(config, nullptr);
  const dfunc::FunctionSpec spec = EchoSpec();
  pool.Acquire(spec, PriorityClass::kInteractive);
  pool.Tick(0);
  // Drive the EWMA until at least two sandboxes are shelved.
  Micros now = 0;
  for (int i = 0; i < 6 && pool.Stats().shelved < 2; ++i) {
    for (int j = 0; j < 20; ++j) {
      auto warm = pool.Acquire(spec, PriorityClass::kInteractive);
      if (warm != nullptr) {
        pool.Release(std::move(warm));
      }
    }
    now += 100 * kMicrosPerMilli;
    pool.Tick(now);
  }
  ASSERT_GE(pool.Stats().shelved, 2);

  // Batch may take warm sandboxes down to the reserve, not past it.
  while (pool.Stats().shelved > config.interactive_reserve) {
    ASSERT_NE(pool.Acquire(spec, PriorityClass::kBatch), nullptr);
  }
  const uint64_t bypassed_before = pool.Stats().bypassed;
  EXPECT_EQ(pool.Acquire(spec, PriorityClass::kBatch), nullptr);
  EXPECT_EQ(pool.Stats().bypassed, bypassed_before + 1);
  // The reserved warm sandbox is still there for an interactive request.
  EXPECT_NE(pool.Acquire(spec, PriorityClass::kInteractive), nullptr);
}

// -------------------------------------------- Platform integration paths

dandelion::PlatformConfig PooledPlatformConfig() {
  dandelion::PlatformConfig config;
  config.num_workers = 3;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  config.enable_sandbox_pool = true;
  config.sandbox_pool.prewarm = TestPrewarmOptions();
  return config;
}

constexpr const char* kSingleDsl = R"(
composition Run(in) => out {
  echo(in = all in) => (out = out);
}
)";

dfunc::DataSetList OneInput(const char* data) {
  return {dfunc::DataSet{"in", {dfunc::DataItem{"", data}}}};
}

TEST(SandboxPoolPlatformTest, PoolMissFallsBackToColdCreate) {
  dandelion::Platform platform(PooledPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  // No tick has run, the shelf is empty: the invocation must still succeed
  // via the cold path and report zero pool hits.
  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("cold");
  auto result = platform.Invoke(std::move(request));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "cold");

  const SandboxPoolStats stats = platform.sandbox_pool()->Stats();
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(SandboxPoolPlatformTest, WarmHitIsReportedOnTheInvocation) {
  dandelion::Platform platform(PooledPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  // Warm the shelf by hand (tests drive Tick directly for determinism).
  SandboxPool* pool = platform.sandbox_pool();
  {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("prime");
    ASSERT_TRUE(platform.Invoke(std::move(request)).ok());
  }
  pool->Tick(0);
  pool->Tick(100 * kMicrosPerMilli);
  ASSERT_GE(pool->Stats().shelved, 1);

  dandelion::InvocationRequest request;
  request.composition = "Run";
  request.args = OneInput("warm");
  dbase::Latch latch(1);
  dbase::Result<dfunc::DataSetList> result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(request),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  result = std::move(r);
                                  latch.CountDown();
                                });
  ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ((*result)[0].items[0].data, "warm");

  const dandelion::InvocationReport report = handle.Report();
  EXPECT_EQ(report.instances_pool_hits, 1u);
  EXPECT_EQ(pool->Stats().hits, 1u);
  EXPECT_EQ(pool->Stats().leased, 0);
}

TEST(SandboxPoolPlatformTest, CancelRacesCompletionOnPooledSandbox) {
  dandelion::PlatformConfig config = PooledPlatformConfig();
  dandelion::Platform platform(config);
  dfunc::FunctionSpec spec;
  spec.name = "echo";  // Keep the composition DSL unchanged.
  spec.context_bytes = 1 << 20;
  spec.body = [](dfunc::FunctionCtx& ctx) {
    // Spin until cancelled or ~50 ms elapse, polling the kill switches the
    // way long-running guest code is expected to.
    dbase::Stopwatch watch;
    while (!ctx.cancelled() && watch.ElapsedMicros() < 50 * kMicrosPerMilli) {
      std::this_thread::yield();
    }
    ctx.EmitOutput("out", "done");
    return ctx.cancelled() ? dbase::Cancelled("stopped") : dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(spec)).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  SandboxPool* pool = platform.sandbox_pool();
  {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("prime");
    ASSERT_TRUE(platform.Invoke(std::move(request)).ok());
  }
  pool->Tick(0);
  pool->Tick(100 * kMicrosPerMilli);
  ASSERT_GE(pool->Stats().shelved, 1);

  // Race a cancel against the pooled execution, at staggered offsets so
  // some cancels land mid-execution and some land after completion.
  for (int i = 0; i < 8; ++i) {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("racy");
    dbase::Latch latch(1);
    std::atomic<bool> ok{false};
    auto handle = platform.Submit(std::move(request),
                                  [&](dbase::Result<dfunc::DataSetList> r) {
                                    ok.store(r.ok());
                                    latch.CountDown();
                                  });
    std::this_thread::sleep_for(std::chrono::microseconds(i * 10000));
    handle.Cancel();
    ASSERT_TRUE(latch.WaitFor(10 * kMicrosPerSecond));
    if (!ok.load()) {
      EXPECT_EQ(handle.Report().phase, dandelion::InvocationPhase::kCancelled);
    }
  }
  // Whatever the races decided, every lease came back.
  EXPECT_EQ(pool->Stats().leased, 0);
}

TEST(SandboxPoolPlatformTest, DeadlineWhileQueuedReleasesTheWarmSandbox) {
  dandelion::PlatformConfig config = PooledPlatformConfig();
  config.num_workers = 2;  // One compute worker (one comm minimum).
  dandelion::Platform platform(config);
  dfunc::FunctionSpec blocker;
  blocker.name = "echo";
  blocker.context_bytes = 1 << 20;
  blocker.body = [](dfunc::FunctionCtx& ctx) {
    auto input = ctx.SingleInput("in");
    if (input.ok() && *input == "block") {
      dbase::Stopwatch watch;
      while (!ctx.cancelled() && watch.ElapsedMicros() < 200 * kMicrosPerMilli) {
        std::this_thread::yield();
      }
    }
    ctx.EmitOutput("out", "done");
    return dbase::OkStatus();
  };
  ASSERT_TRUE(platform.RegisterFunction(std::move(blocker)).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  SandboxPool* pool = platform.sandbox_pool();
  {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("prime");
    ASSERT_TRUE(platform.Invoke(std::move(request)).ok());
  }
  pool->Tick(0);
  pool->Tick(100 * kMicrosPerMilli);
  ASSERT_GE(pool->Stats().shelved, 1);

  // Occupy the single compute worker, then submit a pooled invocation with
  // a deadline far shorter than the blocker: its warm sandbox is acquired
  // at dispatch, parks in the queue, dies there, and must be released back
  // (never executed) rather than leaked.
  dbase::Latch blocker_done(1);
  dandelion::InvocationRequest block_request;
  block_request.composition = "Run";
  block_request.args = OneInput("block");
  platform.Submit(std::move(block_request),
                  [&](dbase::Result<dfunc::DataSetList>) { blocker_done.CountDown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  dandelion::InvocationRequest doomed;
  doomed.composition = "Run";
  doomed.args = OneInput("fast");
  doomed.deadline_us = dandelion::InvocationRequest::DeadlineIn(20 * kMicrosPerMilli);
  dbase::Latch doomed_done(1);
  dbase::Result<dfunc::DataSetList> doomed_result = dfunc::DataSetList{};
  auto handle = platform.Submit(std::move(doomed),
                                [&](dbase::Result<dfunc::DataSetList> r) {
                                  doomed_result = std::move(r);
                                  doomed_done.CountDown();
                                });
  ASSERT_TRUE(doomed_done.WaitFor(10 * kMicrosPerSecond));
  ASSERT_TRUE(blocker_done.WaitFor(10 * kMicrosPerSecond));
  EXPECT_FALSE(doomed_result.ok());
  EXPECT_EQ(doomed_result.status().code(), dbase::StatusCode::kDeadlineExceeded);
  const dandelion::InvocationReport report = handle.Report();
  EXPECT_EQ(report.instances_pool_hits, 0u);  // It never executed.
  EXPECT_EQ(pool->Stats().leased, 0);         // The lease came back.
}

TEST(SandboxPoolPlatformTest, ConcurrentAcquireSurvivesRacingRoleShifts) {
  dandelion::PlatformConfig config = PooledPlatformConfig();
  config.num_workers = 4;
  dandelion::Platform platform(config);
  ASSERT_TRUE(platform.RegisterFunction(EchoSpec()).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kSingleDsl).ok());

  SandboxPool* pool = platform.sandbox_pool();
  constexpr int kInvocations = 120;
  std::atomic<bool> stop{false};
  // One thread hammers role shifts (the elasticity actuator), another
  // drives pool ticks, while invocations flow — the pool must stay
  // consistent under the full concurrency of the runtime.
  std::thread shifter([&] {
    int direction = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      platform.workers().ShiftWorkers(direction);
      direction = -direction;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::thread ticker([&] {
    Micros now = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      pool->Tick(now);
      now += 5 * kMicrosPerMilli;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  dbase::Latch latch(kInvocations);
  std::atomic<int> failures{0};
  for (int i = 0; i < kInvocations; ++i) {
    dandelion::InvocationRequest request;
    request.composition = "Run";
    request.args = OneInput("x");
    request.priority = i % 2 == 0 ? PriorityClass::kInteractive : PriorityClass::kBatch;
    platform.Submit(std::move(request), [&](dbase::Result<dfunc::DataSetList> r) {
      if (!r.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      latch.CountDown();
    });
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(latch.WaitFor(30 * kMicrosPerSecond));
  stop.store(true);
  shifter.join();
  ticker.join();

  EXPECT_EQ(failures.load(), 0);
  const SandboxPoolStats stats = pool->Stats();
  EXPECT_EQ(stats.leased, 0);
  EXPECT_EQ(stats.arrivals, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(stats.hits + stats.misses, stats.arrivals);  // Every acquire resolved.
}

}  // namespace
