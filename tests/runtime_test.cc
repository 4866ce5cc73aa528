// Tests for the runtime: memory contexts + accounting, the two sandbox
// backends (including real process isolation, timeout preemption and a
// worker that sleeps while its child runs),
// engines with role shifting, the policy-driven control plane, the callee
// registry (one name per callee, all-or-none composition batches), and the
// dispatcher / platform running full compositions (fan-out, key grouping,
// optional sets, failure propagation, nesting). Policy decision logic
// itself is covered by tests/policy_test.cc.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>
#include <variant>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/http/http_parser.h"
#include "src/func/builtins.h"
#include "src/http/services.h"
#include "src/runtime/cluster.h"
#include "src/runtime/comm_function.h"
#include "src/runtime/controller.h"
#include "src/runtime/dispatcher.h"
#include "src/runtime/engine.h"
#include "src/runtime/fault.h"
#include "src/runtime/frontend.h"
#include "src/runtime/jail.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/platform.h"
#include "src/runtime/registry.h"
#include "src/runtime/sandbox.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

// --------------------------------------------------------------- Accountant

TEST(MemoryAccountantTest, TracksCurrentAndPeak) {
  MemoryAccountant accountant;
  accountant.Acquire(100);
  accountant.Acquire(50);
  EXPECT_EQ(accountant.current_bytes(), 150u);
  EXPECT_EQ(accountant.peak_bytes(), 150u);
  accountant.Release(100);
  EXPECT_EQ(accountant.current_bytes(), 50u);
  EXPECT_EQ(accountant.peak_bytes(), 150u);
  EXPECT_EQ(accountant.total_acquired(), 150u);
}

// ------------------------------------------------------------------ Context

TEST(MemoryContextTest, CreateAndBounds) {
  MemoryAccountant accountant;
  auto ctx = MemoryContext::Create(4096, &accountant);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ((*ctx)->capacity(), 4096u);
  EXPECT_EQ(accountant.current_bytes(), 4096u);
  EXPECT_TRUE((*ctx)->WriteAt(0, "abcd").ok());
  EXPECT_TRUE((*ctx)->WriteAt(4092, "abcd").ok());
  EXPECT_FALSE((*ctx)->WriteAt(4093, "abcd").ok());
  EXPECT_FALSE((*ctx)->ReadAt(4096, 1).ok());
  EXPECT_EQ((*ctx)->ReadAt(0, 4).value(), "abcd");
  ctx->reset();
  EXPECT_EQ(accountant.current_bytes(), 0u);
}

TEST(MemoryContextTest, RejectsTinyCapacity) {
  EXPECT_FALSE(MemoryContext::Create(8, nullptr).ok());
}

// A context is mapped fresh and unmapped on release: a later context of the
// same capacity reads zeros, whether its predecessor wrote a few bytes or
// more than 64 KiB.
TEST(MemoryContextTest, ReleasedContextLeavesNoBytesBehind) {
  constexpr uint64_t kCapacity = (1 << 20) + 3 * 4096;
  constexpr uint64_t kLargeExtent = 64 * 1024 + 4096;

  {
    auto ctx = MemoryContext::Create(kCapacity, nullptr);
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE((*ctx)->WriteAt(0, "secret-small").ok());
  }
  {
    auto ctx = MemoryContext::Create(kCapacity, nullptr);
    ASSERT_TRUE(ctx.ok());
    auto view = (*ctx)->ReadAt(0, 64);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->find_first_not_of('\0'), std::string_view::npos);

    const std::string big(kLargeExtent, 'X');
    ASSERT_TRUE((*ctx)->WriteAt(0, big).ok());
  }
  {
    auto ctx = MemoryContext::Create(kCapacity, nullptr);
    ASSERT_TRUE(ctx.ok());
    auto view = (*ctx)->ReadAt(0, kLargeExtent);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->find_first_not_of('\0'), std::string_view::npos);
  }
}

TEST(MemoryContextTest, TransferBetweenContexts) {
  auto a = MemoryContext::Create(4096, nullptr);
  auto b = MemoryContext::Create(4096, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->WriteAt(100, "transfer me").ok());
  ASSERT_TRUE((*b)->TransferFrom(**a, 100, 7, 11).ok());
  EXPECT_EQ((*b)->ReadAt(7, 11).value(), "transfer me");
  EXPECT_FALSE((*b)->TransferFrom(**a, 4090, 0, 100).ok());
}

TEST(MemoryContextTest, InputOutputProtocol) {
  auto ctx = MemoryContext::Create(1 << 20, nullptr);
  ASSERT_TRUE(ctx.ok());
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {DataItem{"k", "v"}}});
  ASSERT_TRUE((*ctx)->StoreInputSets(inputs).ok());
  auto loaded = (*ctx)->LoadInputSets();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, inputs);

  DataSetList outputs;
  outputs.push_back(DataSet{"out", {DataItem{"", "result"}}});
  ASSERT_TRUE((*ctx)->StoreOutcome(dbase::OkStatus(), outputs).ok());
  auto read_back = (*ctx)->LoadOutputSets();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, outputs);
}

TEST(MemoryContextTest, ErrorOutcomePropagates) {
  auto ctx = MemoryContext::Create(1 << 16, nullptr);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreOutcome(dbase::NotFound("boom"), {}).ok());
  auto result = (*ctx)->LoadOutputSets();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kNotFound);
  EXPECT_EQ(result.status().message(), "boom");
}

TEST(MemoryContextTest, PendingStateIsError) {
  auto ctx = MemoryContext::Create(1 << 16, nullptr);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets({}).ok());
  EXPECT_FALSE((*ctx)->LoadOutputSets().ok());  // Still pending.
}

TEST(MemoryContextTest, InputsExceedingCapacityRejected) {
  auto ctx = MemoryContext::Create(1024, nullptr);
  ASSERT_TRUE(ctx.ok());
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {DataItem{"", std::string(2000, 'x')}}});
  EXPECT_EQ((*ctx)->StoreInputSets(inputs).code(), dbase::StatusCode::kResourceExhausted);
}

TEST(MemoryContextTest, OversizeOutputsReportExhaustion) {
  auto ctx = MemoryContext::Create(1024, nullptr);
  ASSERT_TRUE(ctx.ok());
  DataSetList outputs;
  outputs.push_back(DataSet{"out", {DataItem{"", std::string(5000, 'x')}}});
  ASSERT_TRUE((*ctx)->StoreOutcome(dbase::OkStatus(), outputs).ok());
  auto result = (*ctx)->LoadOutputSets();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kResourceExhausted);
}

// ----------------------------------------------------------------- Sandbox

dfunc::FunctionSpec EchoSpec() {
  dfunc::FunctionSpec spec;
  spec.name = "echo";
  spec.body = dfunc::EchoFunction;
  spec.context_bytes = 1 << 20;
  return spec;
}

DataSetList EchoInputs(const std::string& payload) {
  DataSetList inputs;
  inputs.push_back(DataSet{"in", {DataItem{"key", payload}}});
  return inputs;
}

class SandboxBackendTest : public ::testing::TestWithParam<IsolationBackend> {};

TEST_P(SandboxBackendTest, ExecutesEcho) {
  const IsolationBackend backend = GetParam();
  auto executor = CreateSandboxExecutor(backend);
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->backend(), backend);

  auto ctx = MemoryContext::Create(1 << 20, nullptr,
                                   /*shared=*/backend == IsolationBackend::kProcess);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets(EchoInputs("hello sandbox")).ok());

  ExecOutcome outcome = executor->Execute(EchoSpec(), **ctx, SandboxOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ASSERT_EQ(outcome.outputs.size(), 1u);
  EXPECT_EQ(outcome.outputs[0].name, "out");
  EXPECT_EQ(outcome.outputs[0].items[0].data, "hello sandbox");
  // The key the body set reaches the caller with its payload.
  EXPECT_EQ(outcome.outputs[0].items[0].key, "key");
  EXPECT_GE(outcome.timings.Total(), 0);
}

TEST_P(SandboxBackendTest, FunctionErrorPropagates) {
  const IsolationBackend backend = GetParam();
  auto executor = CreateSandboxExecutor(backend);
  dfunc::FunctionSpec spec;
  spec.name = "fail";
  spec.body = dfunc::FailingFunction;
  auto ctx = MemoryContext::Create(1 << 20, nullptr,
                                   backend == IsolationBackend::kProcess);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets({}).ok());
  ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), dbase::StatusCode::kInternal);
}

TEST_P(SandboxBackendTest, TimeoutPreempts) {
  const IsolationBackend backend = GetParam();
  auto executor = CreateSandboxExecutor(backend);
  dfunc::FunctionSpec spec;
  spec.name = "spin";
  spec.body = dfunc::InfiniteLoopFunction;
  spec.timeout_us = 30 * dbase::kMicrosPerMilli;
  auto ctx = MemoryContext::Create(1 << 20, nullptr,
                                   backend == IsolationBackend::kProcess);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets({}).ok());
  dbase::Stopwatch watch;
  ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  EXPECT_EQ(outcome.status.code(), dbase::StatusCode::kDeadlineExceeded)
      << outcome.status.ToString();
  EXPECT_LT(watch.ElapsedMicros(), 5 * dbase::kMicrosPerSecond);
}

// A forked child's own CPU comes back with its reap: more than 0 and no
// more than the time from fork to reap. Not the wait alone: a child that
// shares its parent's CPU can run before fork returns in the parent. The
// thread backend forks no child and reports 0.
TEST_P(SandboxBackendTest, ReportsTheForkedChildsOwnCpu) {
  const IsolationBackend backend = GetParam();
  auto executor = CreateSandboxExecutor(backend);
  dfunc::FunctionSpec spec = EchoSpec();
  spec.body = [](dfunc::FunctionCtx& ctx) {
    dbase::SpinFor(20 * dbase::kMicrosPerMilli);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  auto ctx = MemoryContext::Create(1 << 20, nullptr, backend == IsolationBackend::kProcess);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets(EchoInputs("x")).ok());
  const ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  if (backend == IsolationBackend::kProcess) {
    EXPECT_GT(outcome.timings.child_cpu_us, 0);
    EXPECT_LE(outcome.timings.child_cpu_us,
              outcome.timings.setup_us + outcome.timings.execute_us);
    EXPECT_GT(outcome.timings.child_maxrss_kib, 0);
  } else {
    EXPECT_EQ(outcome.timings.child_cpu_us, 0);
    EXPECT_EQ(outcome.timings.child_maxrss_kib, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SandboxBackendTest,
                         ::testing::Values(IsolationBackend::kThread,
                                           IsolationBackend::kProcess),
                         [](const ::testing::TestParamInfo<IsolationBackend>& param_info) {
                           return std::string(IsolationBackendName(param_info.param));
                         });

TEST(SandboxTest, ProcessIsolationSurvivesCrash) {
  // Jail bypassed: raise() is a forbidden syscall under seccomp, which
  // would turn this into a SIGSYS jail kill (covered by jail_test). This
  // test pins the plain die-by-signal decode path.
  const bool jail_was_enabled = SyscallJailEnabled();
  SetSyscallJailEnabled(false);
  auto executor = CreateSandboxExecutor(IsolationBackend::kProcess);
  dfunc::FunctionSpec spec;
  spec.name = "crasher";
  spec.body = [](dfunc::FunctionCtx&) -> dbase::Status {
    // Simulated wild write: only the child dies. SIGKILL rather than
    // SIGSEGV so sanitizer builds exercise the same die-by-signal path
    // (ASan's SEGV handler would turn the crash into a clean exit).
    raise(SIGKILL);
    return dbase::OkStatus();
  };
  auto ctx = MemoryContext::Create(1 << 20, nullptr, /*shared=*/true);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets({}).ok());
  ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  SetSyscallJailEnabled(jail_was_enabled);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_NE(outcome.status.message().find("signal"), std::string::npos);
  EXPECT_EQ(outcome.failure, dpolicy::FailureKind::kCrash);
}

TEST(SandboxTest, ProcessRequiresSharedContext) {
  auto executor = CreateSandboxExecutor(IsolationBackend::kProcess);
  auto ctx = MemoryContext::Create(1 << 20, nullptr, /*shared=*/false);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets({}).ok());
  ExecOutcome outcome = executor->Execute(EchoSpec(), **ctx, SandboxOptions{});
  EXPECT_EQ(outcome.status.code(), dbase::StatusCode::kFailedPrecondition);
}

TEST(SandboxTest, BackendNamesRoundTrip) {
  for (auto backend : {IsolationBackend::kProcess, IsolationBackend::kThread}) {
    auto parsed = IsolationBackendFromName(IsolationBackendName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
  }
  // KVM and rWasm are dsim model rows, not runtime backends.
  for (const char* name : {"kvm", "rwasm", "wasm", "firecracker"}) {
    EXPECT_EQ(IsolationBackendFromName(name).status().code(), dbase::StatusCode::kInvalidArgument)
        << name;
  }
}

// The runtime measures each phase and models none: a cold run of a large
// binary loads nothing and creates no sandbox on the thread backend.
TEST(SandboxTest, ColdRunPaysNoModelledCost) {
  auto executor = CreateSandboxExecutor(IsolationBackend::kThread);
  dfunc::FunctionSpec spec = EchoSpec();
  spec.binary_bytes = 64 << 20;
  auto ctx = MemoryContext::Create(1 << 20, nullptr);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets(EchoInputs("x")).ok());
  ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.timings.load_us, 0);
  EXPECT_EQ(outcome.timings.setup_us, 0);
}

dbase::Micros ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<dbase::Micros>(ts.tv_sec) * dbase::kMicrosPerSecond + ts.tv_nsec / 1000;
}

// The engine worker sleeps on the child instead of spinning: across a
// 100 ms child, the calling thread burns well under 10 ms of CPU.
//
// The caller and the child are pinned to different cores, as on a busy
// engine where the child does not get the worker's core: sharing one core,
// a spinning waiter would hand it to the child on every yield and look
// idle. The wait is measured, not the confinement (jail_test covers that),
// so the jail is off: it would kill the child for sched_setaffinity, and
// sanitizer runtimes make syscalls of their own.
class ProcessWaitCpuTest : public ::testing::Test {
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
    SetSyscallJailEnabled(false);
  }

  void TearDown() override {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    SetSyscallJailEnabled(jail_was_enabled_);
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
  const bool jail_was_enabled_ = SyscallJailEnabled();
  cpu_set_t saved_;
  bool pinned_ = false;
};

TEST_F(ProcessWaitCpuTest, WaitingOnTheChildCostsNoCpu) {
  dfunc::FunctionSpec spec = EchoSpec();
  spec.body = [child_cpu = child_cpu_](dfunc::FunctionCtx& ctx) {
    if (!PinTo(child_cpu)) {
      return dbase::Internal("could not pin the child");
    }
    dbase::SpinFor(100 * dbase::kMicrosPerMilli);
    ctx.EmitOutput("out", "spun");
    return dbase::OkStatus();
  };
  const auto executor = CreateSandboxExecutor(IsolationBackend::kProcess);
  auto ctx = MemoryContext::Create(spec.context_bytes, nullptr, /*shared=*/true);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE((*ctx)->StoreInputSets(EchoInputs("x")).ok());

  const dbase::Stopwatch wall;
  const dbase::Micros cpu_before = ThreadCpuMicros();
  const ExecOutcome outcome = executor->Execute(spec, **ctx, SandboxOptions{});
  const dbase::Micros cpu = ThreadCpuMicros() - cpu_before;

  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message();
  EXPECT_EQ(outcome.outputs[0].items[0].data, "spun");
  EXPECT_GE(wall.ElapsedMicros(), 100 * dbase::kMicrosPerMilli);  // The call spanned the child.
  EXPECT_LT(cpu, 10 * dbase::kMicrosPerMilli) << "worker CPU while the child ran: " << cpu << " us";
}

// ----------------------------------------------------------------- Engines

class WorkerSetTest : public ::testing::Test {
 protected:
  WorkerSetTest() {
    mesh_.Register("echo.internal", std::make_shared<dhttp::EchoService>(),
                   dhttp::LatencyModel{.base_us = 100, .per_kb_us = 0.0, .jitter_sigma = 0.0});
    WorkerSet::Config config;
    config.num_workers = 3;
    config.initial_comm_workers = 1;
    config.backend = IsolationBackend::kThread;
    workers_ = std::make_unique<WorkerSet>(config, &mesh_);
    workers_->set_sleep_for_modeled_latency(false);
  }

  dhttp::ServiceMesh mesh_;
  std::unique_ptr<WorkerSet> workers_;
};

TEST_F(WorkerSetTest, RunsComputeTask) {
  auto ctx_result = MemoryContext::Create(1 << 20, nullptr);
  ASSERT_TRUE(ctx_result.ok());
  std::shared_ptr<MemoryContext> ctx = std::move(ctx_result).value();
  ASSERT_TRUE(ctx->StoreInputSets(EchoInputs("task")).ok());

  dbase::Latch latch(1);
  ExecOutcome outcome;
  ComputeTask task;
  task.spec = EchoSpec();
  task.context = ctx;
  task.done = [&](ExecOutcome result) {
    outcome = std::move(result);
    latch.CountDown();
  };
  ASSERT_TRUE(workers_->SubmitComputeBatch({std::move(task)}));
  ASSERT_TRUE(latch.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.outputs[0].items[0].data, "task");
  EXPECT_GE(workers_->Stats().compute_tasks, 1u);
}

TEST_F(WorkerSetTest, RunsCommTask) {
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://echo.internal/";
  req.body = "ping";

  dbase::Latch latch(1);
  dhttp::HttpResponse response;
  CommTask task;
  task.raw_request = req.Serialize();
  task.done = [&](dhttp::HttpResponse resp, dbase::Micros) {
    response = std::move(resp);
    latch.CountDown();
  };
  ASSERT_TRUE(workers_->SubmitComm(std::move(task)));
  ASSERT_TRUE(latch.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "ping");
}

TEST_F(WorkerSetTest, MalformedCommRequestBecomes400) {
  dbase::Latch latch(1);
  dhttp::HttpResponse response;
  CommTask task;
  task.raw_request = "garbage";
  task.done = [&](dhttp::HttpResponse resp, dbase::Micros) {
    response = std::move(resp);
    latch.CountDown();
  };
  ASSERT_TRUE(workers_->SubmitComm(std::move(task)));
  ASSERT_TRUE(latch.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(response.status_code, 400);
}

TEST_F(WorkerSetTest, RoleShifting) {
  EXPECT_EQ(workers_->compute_workers(), 2);
  EXPECT_EQ(workers_->comm_workers(), 1);
  EXPECT_TRUE(workers_->ShiftWorkerToComm());
  EXPECT_EQ(workers_->comm_workers(), 2);
  EXPECT_FALSE(workers_->ShiftWorkerToComm());  // Min 1 compute worker.
  EXPECT_TRUE(workers_->ShiftWorkerToCompute());
  EXPECT_EQ(workers_->comm_workers(), 1);
  EXPECT_FALSE(workers_->ShiftWorkerToCompute());  // Min 1 comm worker.
}

TEST_F(WorkerSetTest, SubmitAfterShutdownFails) {
  workers_->Shutdown();
  EXPECT_FALSE(workers_->SubmitComputeBatch({ComputeTask{}}));
  EXPECT_FALSE(workers_->SubmitComm(CommTask{}));
}

TEST_F(WorkerSetTest, BatchSubmitRunsEveryTask) {
  constexpr int kTasks = 48;
  dbase::Latch latch(kTasks);
  std::atomic<int> completed{0};
  std::vector<ComputeTask> batch;
  for (int i = 0; i < kTasks; ++i) {
    auto ctx_result = MemoryContext::Create(1 << 16, nullptr);
    ASSERT_TRUE(ctx_result.ok());
    std::shared_ptr<MemoryContext> ctx = std::move(ctx_result).value();
    ASSERT_TRUE(ctx->StoreInputSets(EchoInputs("b" + std::to_string(i))).ok());
    ComputeTask task;
    task.spec = EchoSpec();
    task.context = ctx;
    task.done = [&](ExecOutcome outcome) {
      if (outcome.status.ok()) {
        completed.fetch_add(1);
      }
      latch.CountDown();
    };
    batch.push_back(std::move(task));
  }
  ASSERT_TRUE(workers_->SubmitComputeBatch(std::move(batch)));
  ASSERT_TRUE(latch.WaitFor(10 * dbase::kMicrosPerSecond));
  EXPECT_EQ(completed.load(), kTasks);
  // The whole batch was one arrival burst; counters must balance.
  EXPECT_EQ(workers_->compute_pushed(), static_cast<uint64_t>(kTasks));
  EXPECT_EQ(workers_->compute_popped(), static_cast<uint64_t>(kTasks));
  // One queue per role: nothing is ever stolen.
  EXPECT_EQ(workers_->Stats().compute_steals, 0u);
  EXPECT_EQ(workers_->Stats().comm_steals, 0u);
}

TEST_F(WorkerSetTest, RoleShiftWithBacklogLosesNoTask) {
  // Flood the compute queue, then shift a compute worker to comm while the
  // backlog is live: the remaining compute worker must run every task.
  constexpr int kTasks = 64;
  dbase::Latch latch(kTasks);
  std::atomic<int> completed{0};
  for (int i = 0; i < kTasks; ++i) {
    auto ctx_result = MemoryContext::Create(1 << 16, nullptr);
    ASSERT_TRUE(ctx_result.ok());
    std::shared_ptr<MemoryContext> ctx = std::move(ctx_result).value();
    ASSERT_TRUE(ctx->StoreInputSets(EchoInputs("x")).ok());
    ComputeTask task;
    task.spec = EchoSpec();
    task.spec.body = [](dfunc::FunctionCtx& fctx) {
      dbase::SpinFor(500);
      return dfunc::EchoFunction(fctx);
    };
    task.context = ctx;
    task.done = [&](ExecOutcome outcome) {
      if (outcome.status.ok()) {
        completed.fetch_add(1);
      }
      latch.CountDown();
    };
    ASSERT_TRUE(workers_->SubmitComputeBatch({std::move(task)}));
  }
  ASSERT_TRUE(workers_->ShiftWorkerToComm());  // 2 compute → 1, mid-backlog.
  EXPECT_EQ(workers_->compute_workers(), 1);
  ASSERT_TRUE(latch.WaitFor(30 * dbase::kMicrosPerSecond));
  EXPECT_EQ(completed.load(), kTasks);
  EXPECT_EQ(workers_->compute_pushed(), static_cast<uint64_t>(kTasks));
  EXPECT_EQ(workers_->compute_popped(), static_cast<uint64_t>(kTasks));
}

// A comm task posting to `host` that calls `on_done` when it completes.
CommTask PostTo(const std::string& host, std::function<void()> on_done) {
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://" + host + "/";
  req.body = "ping";
  CommTask task;
  task.raw_request = req.Serialize();
  task.done = [on_done = std::move(on_done)](dhttp::HttpResponse, dbase::Micros) { on_done(); };
  return task;
}

// Voluntary context switches summed over this process's threads whose name
// starts with `prefix`, and how many threads matched.
struct SwitchCount {
  int threads = 0;
  uint64_t switches = 0;
};
SwitchCount VoluntarySwitches(const std::string& prefix) {
  SwitchCount count;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream status(task.path() / "status");
    std::string line;
    bool named = false;
    while (std::getline(status, line)) {
      if (line.rfind("Name:", 0) == 0) {
        named = line.substr(line.find_first_not_of(" \t", 5)).rfind(prefix, 0) == 0;
      } else if (named && line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        ++count.threads;
        count.switches += std::stoull(line.substr(line.find(':') + 1));
      }
    }
  }
  return count;
}

// Idle engine workers block on their role's queue with no timeout: nothing
// wakes them until a task arrives, a role shifts or the queue closes.
TEST_F(WorkerSetTest, IdleWorkersDoNotWake) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Let all three park.
  const SwitchCount before = VoluntarySwitches("engine-");
  ASSERT_EQ(before.threads, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const SwitchCount after = VoluntarySwitches("engine-");
  ASSERT_EQ(after.threads, 3);
  EXPECT_LE(after.switches - before.switches, 10u)
      << "voluntary switches of 3 idle engine workers over 500 ms";
}

// A comm worker with one long call outstanding blocks on its queue with no
// timeout: the call's latency is a reactor timer, so the worker does not
// wake on a tick or in polling slices meanwhile.
TEST_F(WorkerSetTest, CommWorkerWithACallOutstandingDoesNotWake) {
  workers_.reset();  // Only this test's comm worker may be named engine-0.
  mesh_.Register("slow.internal", std::make_shared<dhttp::EchoService>(),
                 dhttp::LatencyModel{
                     .base_us = 10 * dbase::kMicrosPerSecond, .per_kb_us = 0.0, .jitter_sigma = 0.0});
  std::atomic<int> completed{0};
  WorkerSet::Config config;
  config.num_workers = 2;
  config.initial_comm_workers = 1;
  WorkerSet workers(config, &mesh_);  // Modelled latency is held, not skipped.
  ASSERT_TRUE(workers.SubmitComm(PostTo("slow.internal", [&] { completed.fetch_add(1); })));
  for (int i = 0; i < 1000 && workers.Stats().comm_inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(workers.Stats().comm_inflight, 1u);

  const SwitchCount before = VoluntarySwitches("engine-0");
  ASSERT_EQ(before.threads, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const SwitchCount after = VoluntarySwitches("engine-0");
  ASSERT_EQ(after.threads, 1);
  EXPECT_EQ(completed.load(), 0);
  // A 1 ms idle tick would read ~200; polling in 200 µs slices ~1000.
  EXPECT_LE(after.switches - before.switches, 10u) << "voluntary switches of engine-0 over 200 ms";
}

// The green-thread budget is the comm role's: with one comm worker and a
// budget of one, the second call starts only when the first completes.
TEST_F(WorkerSetTest, CommBudgetCapsCallsInFlight) {
  mesh_.Register("twenty.internal", std::make_shared<dhttp::EchoService>(),
                 dhttp::LatencyModel{.base_us = 20000, .per_kb_us = 0.0, .jitter_sigma = 0.0});
  dbase::Latch done(2);
  std::atomic<int> completed{0};
  std::atomic<dbase::Micros> second_done_us{0};
  WorkerSet::Config config;
  config.num_workers = 2;
  config.initial_comm_workers = 1;
  config.comm_parallelism = 1;
  WorkerSet workers(config, &mesh_);
  const dbase::Micros start = dbase::MonotonicClock::Get()->NowMicros();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(workers.SubmitComm(PostTo("twenty.internal", [&] {
      if (completed.fetch_add(1) == 1) {
        second_done_us.store(dbase::MonotonicClock::Get()->NowMicros());
      }
      done.CountDown();
    })));
  }
  uint64_t max_inflight = 0;
  bool finished = false;
  for (int i = 0; i < 50000 && !finished; ++i) {
    finished = done.WaitFor(100);
    max_inflight = std::max(max_inflight, workers.Stats().comm_inflight);
  }
  ASSERT_TRUE(finished);
  EXPECT_LE(max_inflight, 1u);
  EXPECT_GE(second_done_us.load() - start, 40000);
}

// No worker owns a reply: shifting the worker that issued eight calls to
// compute, where it runs a 150 ms task, delays none of them. Another comm
// worker delivers each when its 20 ms latency is due.
TEST_F(WorkerSetTest, ShiftingTheIssuingWorkerToComputeDelaysNoReply) {
  mesh_.Register("twenty.internal", std::make_shared<dhttp::EchoService>(),
                 dhttp::LatencyModel{.base_us = 20000, .per_kb_us = 0.0, .jitter_sigma = 0.0});
  WorkerSet::Config config;
  config.num_workers = 3;
  config.initial_comm_workers = 1;
  WorkerSet workers(config, &mesh_);
  constexpr int kCalls = 8;
  dbase::Latch replies(kCalls);
  const dbase::Micros start = dbase::MonotonicClock::Get()->NowMicros();
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(workers.SubmitComm(PostTo("twenty.internal", [&] { replies.CountDown(); })));
  }
  for (int i = 0; i < 1000 && workers.Stats().comm_inflight < kCalls; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(workers.Stats().comm_inflight, static_cast<uint64_t>(kCalls));

  // Worker 1 joins comm, then worker 0, which issued every call, leaves it.
  // The shifts come first so that worker 1 is free, and three tasks on two
  // compute workers leave a backlog, so worker 0 surely runs one.
  ASSERT_TRUE(workers.ShiftWorkerToComm());
  ASSERT_TRUE(workers.ShiftWorkerToCompute());
  dbase::Latch computed(3);
  for (int i = 0; i < 3; ++i) {
    auto ctx = MemoryContext::Create(1 << 16, nullptr);
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE((*ctx)->StoreInputSets(EchoInputs("x")).ok());
    ComputeTask task;
    task.spec = EchoSpec();
    task.spec.body = [](dfunc::FunctionCtx& fctx) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return dfunc::EchoFunction(fctx);
    };
    task.context = std::move(ctx).value();
    task.done = [&](ExecOutcome) { computed.CountDown(); };
    ASSERT_TRUE(workers.SubmitComputeBatch({std::move(task)}));
  }
  ASSERT_TRUE(replies.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_LT(dbase::MonotonicClock::Get()->NowMicros() - start, 100 * dbase::kMicrosPerMilli)
      << "a worker that issued the calls held their replies across its shift";
  ASSERT_TRUE(computed.WaitFor(5 * dbase::kMicrosPerSecond));
}

// -------------------------------------------------------------- Controller

TEST(ControlPlaneTest, ShiftsTowardBusyQueue) {
  dhttp::ServiceMesh mesh;
  WorkerSet::Config config;
  config.num_workers = 4;
  config.initial_comm_workers = 2;
  WorkerSet workers(config, &mesh);
  workers.set_sleep_for_modeled_latency(false);

  dpolicy::PaperPiPolicy::Options pi_options;
  pi_options.gains.kp = 1.0;
  pi_options.gains.ki = 0.0;
  ControlPlane control(&workers, std::make_unique<dpolicy::PaperPiPolicy>(pi_options),
                       ControlPlane::Config{});

  // Flood the compute queue with slow tasks so its growth dominates.
  dbase::Latch latch(64);
  for (int i = 0; i < 64; ++i) {
    auto ctx_result = MemoryContext::Create(1 << 16, nullptr);
    ASSERT_TRUE(ctx_result.ok());
    std::shared_ptr<MemoryContext> ctx = std::move(ctx_result).value();
    ASSERT_TRUE(ctx->StoreInputSets(EchoInputs("x")).ok());
    ComputeTask task;
    task.spec = EchoSpec();
    task.spec.body = [](dfunc::FunctionCtx& fctx) {
      dbase::SpinFor(2000);
      return dfunc::EchoFunction(fctx);
    };
    task.context = ctx;
    task.done = [&](ExecOutcome) { latch.CountDown(); };
    ASSERT_TRUE(workers.SubmitComputeBatch({std::move(task)}));
  }
  auto decision = control.StepOnce();
  EXPECT_GT(decision.signals.compute_growth - decision.signals.comm_growth, 0.0);
  EXPECT_EQ(decision.shifted, 1);
  EXPECT_EQ(workers.comm_workers(), 1);  // Shifted 2 → 1.
  EXPECT_EQ(control.History().size(), 1u);
  EXPECT_EQ(control.GetSummary().shifts_toward_compute, 1u);
  latch.Wait();
}

TEST(ControlPlaneTest, HistoryIsBoundedRingBuffer) {
  dhttp::ServiceMesh mesh;
  WorkerSet::Config config;
  config.num_workers = 2;
  WorkerSet workers(config, &mesh);
  workers.set_sleep_for_modeled_latency(false);

  ControlPlane::Config cp_config;
  cp_config.history_limit = 8;
  ControlPlane control(&workers, dpolicy::CreatePolicy(dpolicy::PolicyKind::kPaperPi),
                       cp_config);
  for (int i = 0; i < 50; ++i) {
    control.StepOnce();
  }
  const auto history = control.History();
  EXPECT_EQ(history.size(), 8u);  // Oldest decisions evicted.
  EXPECT_EQ(control.GetSummary().decisions, 50u);
  // The retained entries are the most recent ones (time non-decreasing,
  // last entry == the summary's last decision).
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].time_us, history[i - 1].time_us);
  }
  EXPECT_EQ(control.GetSummary().last.time_us, history.back().time_us);
}

// ------------------------------------------------- Dispatcher / Platform

PlatformConfig FastPlatformConfig(IsolationBackend backend = IsolationBackend::kThread) {
  PlatformConfig config;
  config.num_workers = 4;
  config.backend = backend;
  config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList SingleArg(const std::string& param, const std::string& value) {
  DataSetList args;
  args.push_back(DataSet{param, {DataItem{"", value}}});
  return args;
}

TEST(PlatformTest, SingleFunctionComposition) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  auto result = platform.Invoke({"Id", SingleArg("in", "ping")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].name, "out");
  EXPECT_EQ((*result)[0].items[0].data, "ping");
}

// The process reactor runs with 1 ns timer slack, so a modelled comm
// call's latency timer is not pushed late by the kernel's default 50 µs.
TEST(PlatformTest, ReactorRunsWithMinimalTimerSlack) {
  dbase::EventLoop::Scope scope(dbase::EventLoop::Process());
  std::atomic<int> slack{-1};
  dbase::Latch read(1);
  scope.Post([&] {
    slack.store(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
    read.CountDown();
  });
  ASSERT_TRUE(read.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(slack.load(), 1);
}

// One worker runs compute only and no role shift can add a comm worker: a
// composition with an HTTP node fails at once, naming the cause, instead
// of waiting out its deadline on a queue nobody serves.
TEST(PlatformTest, OneWorkerPlatformFailsCommNodeAtOnce) {
  PlatformConfig config = FastPlatformConfig();
  config.num_workers = 1;
  Platform platform(config);
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Call(req) => resp { HTTP(Request = each req) => (resp = Response); }")
                  .ok());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://echo.internal/";
  InvocationRequest request{"Call", SingleArg("req", req.Serialize())};
  request.deadline_us = InvocationRequest::DeadlineIn(dbase::kMicrosPerSecond);
  const dbase::Stopwatch watch;
  auto result = platform.Invoke(std::move(request));
  EXPECT_LT(watch.ElapsedMicros(), 100 * dbase::kMicrosPerMilli);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("no communication engine"), std::string::npos)
      << result.status().ToString();
}

TEST(PlatformTest, MatMulComposition) {
  Platform platform(FastPlatformConfig());
  for (dfunc::FunctionSpec& spec : dfunc::Builtins()) {
    ASSERT_TRUE(platform.RegisterFunction(std::move(spec)).ok()) << spec.name;
  }
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition MM(A, B) => C { matmul(A = all A, B = all B) => (C = C); }")
                  .ok());
  const int n = 16;
  const auto a = dfunc::MakeMatrix(n, 3);
  const auto b = dfunc::MakeMatrix(n, 4);
  DataSetList args;
  args.push_back(DataSet{"A", {DataItem{"", dfunc::EncodeInt64Array(a)}}});
  args.push_back(DataSet{"B", {DataItem{"", dfunc::EncodeInt64Array(b)}}});
  auto result = platform.Invoke({"MM", std::move(args)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(dfunc::DecodeInt64Array((*result)[0].items[0].data).value(),
            dfunc::MultiplyMatrices(a, b, n));
}

// Splitter emits one item per byte; used for fan-out tests.
dbase::Status SplitBytes(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string payload, ctx.SingleInput("in"));
  for (char c : payload) {
    ctx.EmitOutput("parts", std::string(1, c), std::string(1, c));
  }
  return dbase::OkStatus();
}

// Tags each instance's input with a prefix (observes instance granularity).
dbase::Status TagInstance(dfunc::FunctionCtx& ctx) {
  const dfunc::DataSet* in = ctx.input_set("piece");
  if (in == nullptr) {
    return dbase::NotFound("no piece");
  }
  std::string joined;
  for (const auto& item : in->items) {
    joined += item.data;
  }
  ctx.EmitOutput("tagged", "[" + joined + "]");
  return dbase::OkStatus();
}

TEST(PlatformTest, EachFanOutRunsOneInstancePerItem) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "split", .body = SplitBytes}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "tag", .body = TagInstance}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Fan(in) => out {
  split(in = all in) => (pieces = parts);
  tag(piece = each pieces) => (out = tagged);
}
)")
                  .ok());
  auto result = platform.Invoke({"Fan", SingleArg("in", "abc")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)[0].items.size(), 3u);
  EXPECT_EQ((*result)[0].items[0].data, "[a]");
  EXPECT_EQ((*result)[0].items[2].data, "[c]");
  EXPECT_EQ(platform.dispatcher_stats().compute_instances, 4u);  // 1 + 3.
}

TEST(PlatformTest, KeyGroupingGroupsByItemKey) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "split", .body = SplitBytes}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "tag", .body = TagInstance}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Group(in) => out {
  split(in = all in) => (pieces = parts);
  tag(piece = key pieces) => (out = tagged);
}
)")
                  .ok());
  // "abca" → keys a (x2), b, c → 3 instances, deterministic key order.
  auto result = platform.Invoke({"Group", SingleArg("in", "abca")});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)[0].items.size(), 3u);
  EXPECT_EQ((*result)[0].items[0].data, "[aa]");
  EXPECT_EQ((*result)[0].items[1].data, "[b]");
  EXPECT_EQ((*result)[0].items[2].data, "[c]");
}

TEST(PlatformTest, EmptyFanOutYieldsEmptyResult) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "split", .body = SplitBytes}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "tag", .body = TagInstance}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Fan(in) => out {
  split(in = all in) => (pieces = parts);
  tag(piece = each pieces) => (out = tagged);
}
)")
                  .ok());
  auto result = platform.Invoke({"Fan", SingleArg("in", "")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)[0].items.empty());
}

TEST(PlatformTest, NonOptionalEmptyInputSkipsFunction) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Skip(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  DataSetList args;
  args.push_back(DataSet{"in", {}});  // Empty set → function skipped (§4.4).
  auto result = platform.Invoke({"Skip", std::move(args)});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)[0].items.empty());
  EXPECT_EQ(platform.dispatcher_stats().skipped_instances, 1u);
}

// Counts items in optional set "maybe"; always runs thanks to `optional`.
dbase::Status CountMaybe(dfunc::FunctionCtx& ctx) {
  const dfunc::DataSet* maybe = ctx.input_set("maybe");
  const size_t n = maybe == nullptr ? 0 : maybe->items.size();
  ctx.EmitOutput("count", std::to_string(n));
  return dbase::OkStatus();
}

TEST(PlatformTest, OptionalEmptyInputStillRuns) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "count", .body = CountMaybe}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Opt(trigger, maybe) => out {
  count(go = all trigger, maybe = all optional maybe) => (out = count);
}
)")
                  .ok());
  DataSetList args = SingleArg("trigger", "go");
  args.push_back(DataSet{"maybe", {}});
  auto result = platform.Invoke({"Opt", std::move(args)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0].items[0].data, "0");
}

TEST(PlatformTest, ComputeFailureFailsInvocation) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "fail", .body = dfunc::FailingFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition F(in) => out { fail(in = all in) => (out = o); }")
                  .ok());
  auto result = platform.Invoke({"F", SingleArg("in", "x")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kInternal);
  EXPECT_EQ(platform.dispatcher_stats().invocations_failed, 1u);
}

TEST(PlatformTest, HttpNodeTalksToMesh) {
  Platform platform(FastPlatformConfig());
  platform.mesh().Register("echo.internal", std::make_shared<dhttp::EchoService>(),
                           dhttp::LatencyModel{.base_us = 10, .per_kb_us = 0, .jitter_sigma = 0});
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Call(req) => resp {
  HTTP(Request = each req) => (responses = Response);
  echo(in = all responses) => (resp = out);
}
)")
                  .ok());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://echo.internal/";
  req.body = "payload";
  auto result = platform.Invoke({"Call", SingleArg("req", req.Serialize())});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto response = dhttp::ParseResponse((*result)[0].items[0].data);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "payload");
}

TEST(PlatformTest, HttpFailureForwardedAsResponseItem) {
  Platform platform(FastPlatformConfig());  // No services registered.
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Call(req) => resp {
  HTTP(Request = each req) => (responses = Response);
  echo(in = all responses) => (resp = out);
}
)")
                  .ok());
  dhttp::HttpRequest req;
  req.target = "http://unknown.host/";
  auto result = platform.Invoke({"Call", SingleArg("req", req.Serialize())});
  ASSERT_TRUE(result.ok());  // §4.4: failure forwarded, not raised.
  auto response = dhttp::ParseResponse((*result)[0].items[0].data);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 502);
}

TEST(PlatformTest, NestedComposition) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Inner(in) => out { echo(in = all in) => (out = out); }
composition Outer(x) => y {
  Inner(in = all x) => (y = out);
}
)")
                  .ok());
  auto result = platform.Invoke({"Outer", SingleArg("x", "nested")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0].items[0].data, "nested");
}

TEST(PlatformTest, UnknownCalleeFails) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition G(in) => out { Ghost(in = all in) => (out = o); }")
                  .ok());
  auto result = platform.Invoke({"G", SingleArg("in", "x")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kNotFound);
}

TEST(PlatformTest, UnknownCompositionFails) {
  Platform platform(FastPlatformConfig());
  auto result = platform.Invoke({"NoSuch", {}});
  EXPECT_FALSE(result.ok());
}

TEST(PlatformTest, RejectsBadHttpNodeShape) {
  Platform platform(FastPlatformConfig());
  EXPECT_FALSE(platform
                   .RegisterCompositionDsl(
                       "composition H(x) => y { HTTP(Req = each x) => (y = Response); }")
                   .ok());
  EXPECT_FALSE(platform
                   .RegisterCompositionDsl(
                       "composition H(x) => y { HTTP(Request = each x) => (y = Resp); }")
                   .ok());
}

TEST(PlatformTest, RejectsReservedFunctionName) {
  Platform platform(FastPlatformConfig());
  EXPECT_FALSE(platform.RegisterFunction({.name = "HTTP", .body = dfunc::EchoFunction}).ok());
}

TEST(PlatformTest, ConcurrentInvocations) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  constexpr int kInvocations = 64;
  dbase::Latch latch(kInvocations);
  std::atomic<int> correct{0};
  for (int i = 0; i < kInvocations; ++i) {
    platform.Submit({"Id", SingleArg("in", "v" + std::to_string(i))},
                    [&, i](dbase::Result<DataSetList> result) {
                      if (result.ok() &&
                          (*result)[0].items[0].data == "v" + std::to_string(i)) {
                        correct.fetch_add(1);
                      }
                      latch.CountDown();
                    });
  }
  ASSERT_TRUE(latch.WaitFor(30 * dbase::kMicrosPerSecond));
  EXPECT_EQ(correct.load(), kInvocations);
  EXPECT_EQ(platform.dispatcher_stats().invocations_completed,
            static_cast<uint64_t>(kInvocations));
}

TEST(PlatformTest, ProcessBackendEndToEnd) {
  Platform platform(FastPlatformConfig(IsolationBackend::kProcess));
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  auto result = platform.Invoke({"Id", SingleArg("in", "forked")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0].items[0].data, "forked");
}

TEST(PlatformTest, MemoryReleasedAfterInvocation) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  ASSERT_TRUE(platform.Invoke({"Id", SingleArg("in", "x")}).ok());
  // The invocation callback fires from inside the engine's task completion;
  // the context itself is released moments later when the task object is
  // destroyed — poll briefly.
  const dbase::Micros deadline = dbase::MonotonicClock::Get()->NowMicros() + 2000000;
  while (platform.accountant().current_bytes() != 0 &&
         dbase::MonotonicClock::Get()->NowMicros() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(platform.accountant().current_bytes(), 0u);
  EXPECT_GT(platform.accountant().total_acquired(), 0u);
}

// A thread-backend instance maps no context: the output its body emits
// comes back by reference, small or large, never copied out of a region.
// The test holds the emitted payload, so a copy could not reuse its bytes.
TEST(PlatformTest, ThreadBackendOutputsComeBackByReference) {
  for (const size_t bytes : {size_t{1024}, size_t{128 * 1024}}) {
    Platform platform(FastPlatformConfig());
    dfunc::Payload emitted;
    ASSERT_TRUE(platform
                    .RegisterFunction({.name = "emit",
                                       .body =
                                           [&emitted, bytes](dfunc::FunctionCtx& ctx) {
                                             ctx.EmitOutput("out", std::string(bytes, 'o'));
                                             emitted = ctx.outputs()[0].items[0].data;
                                             return dbase::OkStatus();
                                           }})
                    .ok());
    ASSERT_TRUE(platform
                    .RegisterCompositionDsl(
                        "composition Emit(in) => out { emit(in = all in) => (out = out); }")
                    .ok());
    auto result = platform.Invoke({"Emit", SingleArg("in", "x")});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ((*result)[0].items[0].data.size(), bytes);
    EXPECT_EQ((*result)[0].items[0].data.data(), emitted.data()) << bytes << " B";
  }
}

// An output past the declared memory fails the same on both backends,
// although only the process backend marshals it into a context.
TEST(PlatformTest, OversizedOutputFailsAlikeOnBothBackends) {
  std::vector<dbase::Status> failures;
  for (const IsolationBackend backend : {IsolationBackend::kThread, IsolationBackend::kProcess}) {
    Platform platform(FastPlatformConfig(backend));
    ASSERT_TRUE(platform
                    .RegisterFunction({.name = "big",
                                       .body =
                                           [](dfunc::FunctionCtx& ctx) {
                                             ctx.EmitOutput("out", std::string(96 * 1024, 'b'));
                                             return dbase::OkStatus();
                                           },
                                       .context_bytes = 64 * 1024})
                    .ok());
    ASSERT_TRUE(platform
                    .RegisterCompositionDsl(
                        "composition Big(in) => out { big(in = all in) => (out = out); }")
                    .ok());
    auto result = platform.Invoke({"Big", SingleArg("in", "x")});
    ASSERT_FALSE(result.ok()) << IsolationBackendName(backend);
    EXPECT_EQ(result.status().code(), dbase::StatusCode::kResourceExhausted)
        << IsolationBackendName(backend) << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("outputs exceed context capacity"),
              std::string::npos)
        << result.status().ToString();
    failures.push_back(result.status());
  }
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].message(), failures[1].message());
}

// ----------------------------------------------- Communication functions

// The modelled latency covers the service's own work, so a reply lands
// `latency_us` after its call started: a 100 ms service behind a 100 ms
// latency model answers after about 100 ms, not 200.
TEST(PlatformTest, CommReplyLatencyIncludesTheServicesOwnWork) {
  PlatformConfig config = FastPlatformConfig();
  config.sleep_for_modeled_latency = true;
  Platform platform(config);
  platform.mesh().Register(
      "slow.internal",
      std::make_shared<dhttp::LambdaService>([](const dhttp::HttpRequest&, const dhttp::Uri&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return dhttp::HttpResponse::Ok("done");
      }),
      dhttp::LatencyModel{.base_us = 100 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                          .jitter_sigma = 0.0});
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Call(req) => resp { HTTP(Request = each req) => (resp = "
                      "Response); }")
                  .ok());
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kGet;
  req.target = "http://slow.internal/";

  const dbase::Stopwatch watch;
  auto result = platform.Invoke({"Call", SingleArg("req", req.Serialize())});
  const dbase::Micros took = watch.ElapsedMicros();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(took, 100 * dbase::kMicrosPerMilli);
  EXPECT_LT(took, 170 * dbase::kMicrosPerMilli);
}

// --------------------------------------------------------------- Registry

// The callee `name` resolves to if it is a T; null otherwise.
template <typename T>
std::shared_ptr<const T> ResolveAs(const Registry& registry, const std::string& name) {
  const Callee callee = registry.Resolve(name);
  const auto* held = std::get_if<std::shared_ptr<const T>>(&callee);
  return held != nullptr ? *held : nullptr;
}

CommFunctionSpec NullCommFunction(std::string name) {
  CommFunctionSpec spec;
  spec.name = std::move(name);
  spec.handler = [](dhttp::ServiceMesh&, std::string_view) { return CommCallResult{}; };
  return spec;
}

TEST(RegistryTest, RegisterLookup) {
  Registry registry;
  ASSERT_TRUE(registry.Add(dfunc::FunctionSpec{.name = "f", .body = dfunc::EchoFunction}).ok());
  const auto spec = ResolveAs<dfunc::FunctionSpec>(registry, "f");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->name, "f");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(registry.Resolve("g")));
  // Lookup finds compositions only.
  EXPECT_EQ(registry.Lookup("f").status().code(), dbase::StatusCode::kNotFound);
  EXPECT_TRUE(registry.CompositionNames().empty());
}

TEST(RegistryTest, RejectsDuplicatesAndInvalid) {
  Registry registry;
  ASSERT_TRUE(registry.Add(dfunc::FunctionSpec{.name = "f", .body = dfunc::EchoFunction}).ok());
  EXPECT_EQ(registry.Add(dfunc::FunctionSpec{.name = "f", .body = dfunc::EchoFunction}).code(),
            dbase::StatusCode::kAlreadyExists);
  EXPECT_FALSE(registry.Add(dfunc::FunctionSpec{.name = "", .body = dfunc::EchoFunction}).ok());
  EXPECT_FALSE(registry.Add(dfunc::FunctionSpec{.name = "nobody", .body = nullptr}).ok());
  EXPECT_TRUE(std::holds_alternative<std::monostate>(registry.Resolve("nobody")));
  // The sandbox and the engine each need a positive per-function timeout.
  for (const dbase::Micros timeout : {dbase::Micros{0}, dbase::Micros{-1}}) {
    EXPECT_EQ(registry
                  .Add(dfunc::FunctionSpec{
                      .name = "g", .body = dfunc::EchoFunction, .timeout_us = timeout})
                  .code(),
              dbase::StatusCode::kInvalidArgument)
        << timeout;
  }
  EXPECT_TRUE(std::holds_alternative<std::monostate>(registry.Resolve("g")));
}

TEST(RegistryTest, RegisterBuiltins) {
  Registry registry;
  for (dfunc::FunctionSpec& spec : dfunc::Builtins()) {
    ASSERT_TRUE(registry.Add(std::move(spec)).ok());
  }
  for (const char* name : {"matmul", "array_stats", "echo", "fail", "spin"}) {
    EXPECT_NE(ResolveAs<dfunc::FunctionSpec>(registry, name), nullptr) << name;
  }
}

TEST(RegistryTest, HttpPreRegistered) {
  Registry registry;
  const auto spec = ResolveAs<CommFunctionSpec>(registry, kHttpFunctionName);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->request_set, kHttpRequestSet);
  EXPECT_EQ(spec->response_set, kHttpResponseSet);
}

TEST(RegistryTest, CommRegistrationRules) {
  Registry registry;
  const CommFunctionSpec spec = NullCommFunction("GRPC");
  EXPECT_TRUE(registry.Add(spec).ok());
  EXPECT_EQ(registry.Add(spec).code(), dbase::StatusCode::kAlreadyExists);
  CommFunctionSpec no_handler;
  no_handler.name = "X";
  EXPECT_FALSE(registry.Add(no_handler).ok());
  CommFunctionSpec no_name = spec;
  no_name.name = "";
  EXPECT_FALSE(registry.Add(no_name).ok());
  CommFunctionSpec no_set = NullCommFunction("Y");
  no_set.response_set = "";
  EXPECT_FALSE(registry.Add(no_set).ok());
  // HTTP and GRPC only.
  EXPECT_NE(ResolveAs<CommFunctionSpec>(registry, kHttpFunctionName), nullptr);
  EXPECT_NE(ResolveAs<CommFunctionSpec>(registry, "GRPC"), nullptr);
  for (const char* name : {"X", "", "Y"}) {
    EXPECT_TRUE(std::holds_alternative<std::monostate>(registry.Resolve(name))) << name;
  }
}

// Two threads race to register one name, as a compute function and as a
// communication function: exactly one of them gets it, every round.
TEST(PlatformTest, RacingKindsTakeANameOnce) {
  Platform platform(FastPlatformConfig());
  constexpr int kRounds = 2000;
  std::vector<char> compute_won(kRounds, 0);
  std::vector<char> comm_won(kRounds, 0);
  // This thread starts each round once both racers wait for it, and the
  // rounds sweep the racers' start offset across about ±2 µs, so some
  // registrations overlap whichever racer is faster. A thread waiting
  // long yields, for a loaded host.
  const auto spin_until = [](const auto& done) {
    for (int spins = 0; !done(); ++spins) {
      if (spins > 100000) {
        std::this_thread::yield();
      }
    }
  };
  std::atomic<int> ready{0};
  std::atomic<int> started{0};
  const auto await_start = [&](int i, int delay) {
    ready.fetch_add(1);
    spin_until([&] { return started.load() > i; });
    volatile int sink = 0;
    for (int n = 0; n < delay; ++n) {
      sink = n;
    }
    (void)sink;
  };
  const auto skew = [](int i) { return (i % 100) * 20 - 1000; };
  std::thread compute([&] {
    for (int i = 0; i < kRounds; ++i) {
      dfunc::FunctionSpec spec{.name = "n" + std::to_string(i), .body = dfunc::EchoFunction};
      await_start(i, std::max(skew(i), 0));
      compute_won[i] = platform.RegisterFunction(std::move(spec)).ok();
    }
  });
  std::thread comm([&] {
    for (int i = 0; i < kRounds; ++i) {
      CommFunctionSpec spec = NullCommFunction("n" + std::to_string(i));
      await_start(i, std::max(-skew(i), 0));
      comm_won[i] = platform.RegisterCommFunction(std::move(spec)).ok();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    spin_until([&] { return ready.load() == 2 * (i + 1); });
    started.store(i + 1);
  }
  compute.join();
  comm.join();
  int both = 0;
  int neither = 0;
  for (int i = 0; i < kRounds; ++i) {
    both += compute_won[i] && comm_won[i];
    neither += !compute_won[i] && !comm_won[i];
  }
  EXPECT_EQ(both, 0);
  EXPECT_EQ(neither, 0);
}

// A name names one callee: a composition cannot take a communication
// function's or a function's name, nor a function a composition's.
TEST(PlatformTest, CompositionNamesShareTheCalleeNamespace) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  EXPECT_EQ(platform
                .RegisterCompositionDsl(
                    "composition HTTP(in) => out { echo(in = all in) => (out = out); }")
                .code(),
            dbase::StatusCode::kAlreadyExists);
  EXPECT_EQ(platform
                .RegisterCompositionDsl(
                    "composition echo(in) => out { Id(in = all in) => (out = out); }")
                .code(),
            dbase::StatusCode::kAlreadyExists);
  EXPECT_EQ(platform.RegisterFunction({.name = "Id", .body = dfunc::EchoFunction}).code(),
            dbase::StatusCode::kAlreadyExists);
  // The callees kept their kinds: Id still runs echo.
  auto result = platform.Invoke({"Id", SingleArg("in", "x")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0].items[0].data, "x");
}

// A DSL source registers all of its compositions or none: one taken name
// leaves the others unregistered, so the corrected source registers.
TEST(PlatformTest, FailedCompositionBatchRegistersNone) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition B(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  EXPECT_EQ(platform
                .RegisterCompositionDsl(R"(
composition C(in) => out { echo(in = all in) => (out = out); }
composition B(in) => out { echo(in = all in) => (out = out); }
)")
                .code(),
            dbase::StatusCode::kAlreadyExists);
  EXPECT_EQ(platform.Invoke({"C", SingleArg("in", "x")}).status().code(),
            dbase::StatusCode::kNotFound);
  EXPECT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition C(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  EXPECT_TRUE(platform.Invoke({"C", SingleArg("in", "x")}).ok());
}

TEST(PlatformTest, CustomCommFunctionRunsInComposition) {
  Platform platform(FastPlatformConfig());
  // A toy "REVERSE" protocol: trusted code that reverses the request bytes.
  CommFunctionSpec reverse;
  reverse.name = "REVERSE";
  reverse.request_set = "Request";
  reverse.response_set = "Response";
  reverse.handler = [](dhttp::ServiceMesh&, std::string_view raw) {
    CommCallResult result;
    std::string body(raw.rbegin(), raw.rend());
    result.response = dhttp::HttpResponse::Ok(std::move(body));
    result.latency_us = 10;
    return result;
  };
  ASSERT_TRUE(platform.RegisterCommFunction(std::move(reverse)).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Rev(req) => resp {
  REVERSE(Request = each req) => (responses = Response);
  echo(in = all responses) => (resp = out);
}
)")
                  .ok());
  auto result = platform.Invoke({"Rev", SingleArg("req", "abc")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto response = dhttp::ParseResponse((*result)[0].items[0].data);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "cba");
}

TEST(PlatformTest, CommFunctionNameCollisions) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "taken", .body = dfunc::EchoFunction}).ok());
  CommFunctionSpec clash;
  clash.name = "taken";
  clash.handler = [](dhttp::ServiceMesh&, std::string_view) { return CommCallResult{}; };
  EXPECT_FALSE(platform.RegisterCommFunction(clash).ok());

  CommFunctionSpec fine = clash;
  fine.name = "FTP";
  ASSERT_TRUE(platform.RegisterCommFunction(fine).ok());
  EXPECT_FALSE(platform.RegisterFunction({.name = "FTP", .body = dfunc::EchoFunction}).ok());
}

TEST(PlatformTest, CustomCommNodeShapeValidated) {
  Platform platform(FastPlatformConfig());
  CommFunctionSpec spec;
  spec.name = "PIPE";
  spec.request_set = "In";
  spec.response_set = "Out";
  spec.handler = [](dhttp::ServiceMesh&, std::string_view) { return CommCallResult{}; };
  ASSERT_TRUE(platform.RegisterCommFunction(std::move(spec)).ok());
  // Wrong set names rejected at registration.
  EXPECT_FALSE(platform
                   .RegisterCompositionDsl(
                       "composition P(x) => y { PIPE(Request = each x) => (y = Out); }")
                   .ok());
  EXPECT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition P(x) => y { PIPE(In = each x) => (y = Out); }")
                  .ok());
}

// -------------------------------------------------- Dispatcher edge cases

// Joins two input sets into one item "left|right".
dbase::Status JoinPair(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string left, ctx.SingleInput("left"));
  ASSIGN_OR_RETURN(std::string right, ctx.SingleInput("right"));
  ctx.EmitOutput("joined", left + "|" + right);
  return dbase::OkStatus();
}

// Produces two output sets from one input.
dbase::Status SplitCase(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string in, ctx.SingleInput("in"));
  std::string upper = in;
  std::string lower = in;
  for (char& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  ctx.EmitOutput("upper", upper);
  ctx.EmitOutput("lower", lower);
  return dbase::OkStatus();
}

TEST(PlatformTest, DiamondDagJoinsBothBranches) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "splitcase", .body = SplitCase}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "join", .body = JoinPair}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Diamond(in) => out {
  splitcase(in = all in) => (ups = upper, lows = lower);
  join(left = all ups, right = all lows) => (out = joined);
}
)")
                  .ok());
  auto result = platform.Invoke({"Diamond", SingleArg("in", "MiXeD")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)[0].items[0].data, "MIXED|mixed");
}

TEST(PlatformTest, ValueConsumedByTwoNodes) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "join", .body = JoinPair}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Share(in) => out {
  echo(in = all in) => (a = out);
  echo2(in = all in) => (b = out);
  join(left = all a, right = all b) => (out = joined);
}
)")
                  .ok());
  // "echo2" is not registered: expect failure naming the callee.
  auto bad = platform.Invoke({"Share", SingleArg("in", "x")});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("echo2"), std::string::npos);
}

TEST(PlatformTest, MultipleResults) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "splitcase", .body = SplitCase}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(R"(
composition Both(in) => up, down {
  splitcase(in = all in) => (up = upper, down = lower);
}
)")
                  .ok());
  auto result = platform.Invoke({"Both", SingleArg("in", "AbC")});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].name, "up");
  EXPECT_EQ((*result)[0].items[0].data, "ABC");
  EXPECT_EQ((*result)[1].name, "down");
  EXPECT_EQ((*result)[1].items[0].data, "abc");
}

TEST(PlatformTest, NestingDepthLimited) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  // Mutually recursive compositions: A invokes B invokes A — must hit the
  // depth bound instead of spinning forever. Registration order requires
  // both to exist before invoke; each references the other by name only.
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition A(in) => out { B(in = all in) => (out = out); }
composition B(in) => out { A(in = all in) => (out = out); }
)")
                  .ok());
  auto result = platform.Invoke({"A", SingleArg("in", "x")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbase::StatusCode::kResourceExhausted);
}

TEST(PlatformTest, NestedCompositionCompletingSynchronously) {
  // Regression test: a nested composition whose inner node is skipped by
  // conditional execution completes synchronously, re-entering the parent
  // invocation from the same call stack — this must not deadlock.
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Inner(in) => out { echo(in = all in) => (out = out); }
composition Outer(x) => y { Inner(in = all optional x) => (y = out); }
)")
                  .ok());
  DataSetList args;
  args.push_back(DataSet{"x", {}});  // Empty: Inner's echo skips instantly.
  auto result = platform.Invoke({"Outer", std::move(args)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE((*result)[0].items.empty());
}

TEST(PlatformTest, FanOutOverNestedComposition) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "split", .body = SplitBytes}).ok());
  ASSERT_TRUE(platform.RegisterFunction({.name = "tag", .body = TagInstance}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Wrap(piece) => out { tag(piece = all piece) => (out = tagged); }
composition FanNested(in) => out {
  split(in = all in) => (pieces = parts);
  Wrap(piece = each pieces) => (out = out);
}
)")
                  .ok());
  auto result = platform.Invoke({"FanNested", SingleArg("in", "xy")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)[0].items.size(), 2u);
  EXPECT_EQ((*result)[0].items[0].data, "[x]");
  EXPECT_EQ((*result)[0].items[1].data, "[y]");
}

// ---------------------------------------------------------------- Frontend

TEST(FrontendTest, InvokeOverLoopback) {
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  HttpFrontend frontend(&platform, 0);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  // Plain TCP client.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(frontend.port());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "/invoke/Id";
  req.headers.Add("X-Dandelion-Raw", "1");
  req.body = "over the wire";
  const std::string wire = req.Serialize();
  ASSERT_EQ(write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));

  std::string response_wire;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response_wire.append(buf, static_cast<size_t>(n));
    if (response_wire.find("\r\n\r\n") != std::string::npos &&
        response_wire.size() > response_wire.find("\r\n\r\n") + 4) {
      break;
    }
  }
  close(fd);

  auto response = dhttp::ParseResponse(response_wire);
  ASSERT_TRUE(response.ok()) << response_wire;
  EXPECT_EQ(response->status_code, 200);
  auto sets = dfunc::UnmarshalSets(response->body);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ((*sets)[0].items[0].data, "over the wire");
  frontend.Stop();
}

TEST(FrontendTest, HostileContentLengthRejected) {
  Platform platform(FastPlatformConfig());
  HttpFrontend frontend(&platform, 0);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  // Hostile Content-Length values, answered from the header alone instead
  // of buffering gigabytes of body: huge-but-parseable gets 413, while an
  // unparseable value (garbage, or past 2^64) fails closed with 400 per
  // RFC 9110 §8.6 — an ignored parse failure would default the length to 0
  // and sail past the cap.
  struct Case {
    const char* content_length;
    int expected_status;
  };
  for (const Case c : {Case{"99999999999", 413}, Case{"18446744073709551616", 400},
                       Case{"abc", 400}}) {
    const char* hostile_length = c.content_length;
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(frontend.port());
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

    const std::string wire = std::string("POST /invoke/Id HTTP/1.1\r\nContent-Length: ") +
                             hostile_length + "\r\n\r\n";
    ASSERT_EQ(write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));

    std::string response_wire;
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0) {
      response_wire.append(buf, static_cast<size_t>(n));
    }
    close(fd);

    auto response = dhttp::ParseResponse(response_wire);
    ASSERT_TRUE(response.ok()) << response_wire;
    EXPECT_EQ(response->status_code, c.expected_status) << hostile_length;
  }
  frontend.Stop();
}

// ----------------------------------------------------------- Thread census

// Names of this process's threads, one per /proc/self/task entry.
std::vector<std::string> ThreadNames() {
  std::vector<std::string> names;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    names.push_back(name);
  }
  return names;
}

// A node's deadline reaping, retry backoff and control ticks all ride the
// process reactor: a Platform adds its engine workers and at most that
// thread, however many of those timers it has used, and no `timer` thread.
TEST(ThreadCensusTest, PlatformTimersShareOneThread) {
  FaultInjector::Get().Reset();
  const size_t threads_before = ThreadNames().size();

  PlatformConfig config = FastPlatformConfig();
  config.num_workers = 2;
  config.enable_control_plane = true;
  config.control_interval_us = 5 * dbase::kMicrosPerMilli;
  config.sleep_for_modeled_latency = true;  // The comm call really parks.
  Platform platform(config);
  platform.mesh().Register(
      "slow.internal", std::make_shared<dhttp::EchoService>(),
      dhttp::LatencyModel{.base_us = 500 * dbase::kMicrosPerMilli, .per_kb_us = 0.0,
                          .jitter_sigma = 0.0});
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(R"(
composition Call(req) => resp { HTTP(Request = each req) => (resp = Response); }
composition Id(in) => out { echo(in = all in) => (out = out); }
)")
                  .ok());

  // Only the deadline timer can fail an invocation parked on a comm call.
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://slow.internal/";
  req.body = "ping";
  InvocationRequest parked{"Call", SingleArg("req", req.Serialize())};
  parked.deadline_us = InvocationRequest::DeadlineIn(30 * dbase::kMicrosPerMilli);
  auto reaped = platform.Invoke(std::move(parked));
  ASSERT_FALSE(reaped.ok());
  EXPECT_EQ(reaped.status().code(), dbase::StatusCode::kDeadlineExceeded);

  // One injected transient failure, absorbed by a backed-off relaunch.
  FaultInjector::Get().Arm(FaultPoint::kTransientResourceExhausted,
                           FaultPlan{.every_n = 1, .limit = 1});
  dbase::Latch retried_done(1);
  InvocationHandle retried = platform.Submit({"Id", SingleArg("in", "again")},
                                             [&](dbase::Result<DataSetList> result) {
                                               EXPECT_TRUE(result.ok());
                                               retried_done.CountDown();
                                             });
  ASSERT_TRUE(retried_done.WaitFor(10 * dbase::kMicrosPerSecond));
  FaultInjector::Get().Reset();
  EXPECT_EQ(retried.Report().retries_attempted, 1u);

  const dbase::Micros give_up =
      dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
  while (platform.control_plane()->GetSummary().decisions < 2 &&
         dbase::MonotonicClock::Get()->NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(platform.control_plane()->GetSummary().decisions, 2u);

  const std::vector<std::string> names = ThreadNames();
  EXPECT_LE(names.size(), threads_before + static_cast<size_t>(config.num_workers) + 1);
  for (const std::string& name : names) {
    EXPECT_NE(name, "ctrl-plane");
    EXPECT_NE(name, "timer");
    EXPECT_NE(name.rfind("invocation-rea", 0), 0u) << name;
    EXPECT_NE(name.rfind("retry-schedule", 0), 0u) << name;
  }
}

// The HTTP frontend, every in-process node's wire server and the router's
// wire client all ride the one process reactor, and dispatch inline on it:
// a two-node cluster behind a frontend adds its engine workers plus at most
// the `reactor` thread, however much traffic it has served.
TEST(ThreadCensusTest, OneReactorPerProcess) {
  const size_t threads_before = ThreadNames().size();

  Cluster::Config config;
  config.num_nodes = 2;
  config.node_config = FastPlatformConfig();
  config.node_config.num_workers = 1;
  config.gossip_interval_us = 0;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  HttpFrontend frontend(&cluster.node(0), 0);
  frontend.AttachCluster(&cluster);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(frontend.port());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "/invoke/Id";
  req.headers.Add("X-Dandelion-Raw", "1");
  req.headers.Add("Connection", "close");
  req.body = "routed";
  const std::string wire = req.Serialize();
  ASSERT_EQ(write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));
  std::string response_wire;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response_wire.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  auto response = dhttp::ParseResponse(response_wire);
  ASSERT_TRUE(response.ok()) << response_wire;
  EXPECT_EQ(response->status_code, 200);
  cluster.GossipNow();
  EXPECT_EQ(cluster.Stats().gossip_rounds, 1u);
  uint64_t served = 0;
  for (const Cluster::PeerStats& peer : cluster.Stats().peers) {
    served += peer.served;
  }
  EXPECT_EQ(served, 1u);

  const std::vector<std::string> names = ThreadNames();
  const size_t engine_workers = 2 * static_cast<size_t>(config.node_config.num_workers);
  EXPECT_LE(names.size(), threads_before + engine_workers + 1);
  for (const std::string& name : names) {
    EXPECT_NE(name.rfind("frontend", 0), 0u) << name;
    EXPECT_NE(name.rfind("dnet-", 0), 0u) << name;
    EXPECT_NE(name.rfind("node-dispatch", 0), 0u) << name;
  }
  frontend.Stop();
}

// Every sandbox starts cold, so nothing but the engines and the reactor
// runs a Platform: with the control plane on and invocations served, on
// either backend, the threads it adds are `engine-*` workers and `reactor`,
// and nothing else.
TEST(ThreadCensusTest, ControlPlaneAddsOnlyEnginesAndTheReactor) {
  for (const IsolationBackend backend : {IsolationBackend::kThread, IsolationBackend::kProcess}) {
    SCOPED_TRACE(std::string(IsolationBackendName(backend)));
    const std::vector<std::string> before = ThreadNames();

    PlatformConfig config = FastPlatformConfig(backend);
    config.num_workers = 2;
    config.enable_control_plane = true;
    config.control_interval_us = 5 * dbase::kMicrosPerMilli;
    Platform platform(config);
    ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    ASSERT_TRUE(platform
                    .RegisterCompositionDsl(
                        "composition Id(in) => out { echo(in = all in) => (out = out); }")
                    .ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(platform.Invoke({"Id", SingleArg("in", "cold")}).ok());
    }
    const dbase::Micros give_up =
        dbase::MonotonicClock::Get()->NowMicros() + 5 * dbase::kMicrosPerSecond;
    while (platform.control_plane()->GetSummary().decisions < 2 &&
           dbase::MonotonicClock::Get()->NowMicros() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(platform.control_plane()->GetSummary().decisions, 2u);

    // A thread names itself first thing in its body, so until the scheduler
    // first runs it, it still carries its creator's name; on a loaded host
    // an engine worker that has had no work can stay unnamed past the
    // invocations. Give the new threads time to run that far: the census
    // below then judges the names they chose.
    std::string creator;
    std::getline(std::ifstream("/proc/self/comm"), creator);
    const auto unnamed = [&creator](const std::vector<std::string>& names) {
      return std::count(names.begin(), names.end(), creator);
    };
    std::vector<std::string> after = ThreadNames();
    const dbase::Micros named_by =
        dbase::MonotonicClock::Get()->NowMicros() + 2 * dbase::kMicrosPerSecond;
    while (unnamed(after) > unnamed(before) &&
           dbase::MonotonicClock::Get()->NowMicros() < named_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      after = ThreadNames();
    }
    std::multiset<std::string> added(after.begin(), after.end());
    for (const std::string& name : before) {
      if (const auto it = added.find(name); it != added.end()) {
        added.erase(it);
      }
    }
    EXPECT_LE(added.size(), static_cast<size_t>(config.num_workers) + 1);
    for (const std::string& name : added) {
      EXPECT_TRUE(name == "reactor" || name.rfind("engine-", 0) == 0) << name;
    }
  }
}

}  // namespace
}  // namespace dandelion
