#include "src/runtime/sandbox_pool.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include <algorithm>
#include <mutex>
#include <thread>

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/runtime/fault.h"
#include "src/runtime/jail.h"

namespace dandelion {

namespace {

// The go-pipe write in Execute() is the liveness probe for the template
// child: if the child died, every read end is closed (the parent dropped
// its own at Arm) and the write must come back EPIPE — not raise SIGPIPE
// and kill the whole runtime. The go-pipe is a pipe, not a socket, so
// MSG_NOSIGNAL (which every socket write in the runtime uses instead) does
// not apply: SIGPIPE is ignored process-wide, once, when the first
// process-backend pool is built.
void IgnoreSigpipeOnce() {
  static std::once_flag once;
  std::call_once(once, [] { signal(SIGPIPE, SIG_IGN); });
}

// Serialized size of ContextHeader ([u32][i32][u64]); the parent widens
// the scrub extent past its own touched() mark to cover the child's
// outcome writes starting at offset 0.
constexpr uint64_t kContextHeaderBytes = 16;

// How long Arm() waits for a fresh template child's liveness ack. Arming
// runs off the critical path (Tick's fill half), so a generous bound costs
// nothing; a child that misses it is killed and the fill falls back cold.
constexpr int kArmAckTimeoutMs = 200;

// ---------------------------------------------------------------------------
// Thread-flavoured warm sandbox: the binary load and setup cost models were
// paid at fill time; execution delegates to the shared executor with
// prewarmed set, which skips both and reports pool_hit.
// ---------------------------------------------------------------------------
class ThreadWarmSandbox : public WarmSandbox {
 public:
  ThreadWarmSandbox(dfunc::FunctionSpec spec, std::shared_ptr<MemoryContext> context,
                    SandboxExecutor* executor)
      : WarmSandbox(std::move(spec), std::move(context)), executor_(executor) {}

  ExecOutcome Execute(const SandboxOptions& options) override {
    SandboxOptions prewarmed = options;
    prewarmed.prewarmed = true;
    return executor_->Execute(spec_, *context_, prewarmed);
  }

  bool Recycle() override {
    // Thread backends run the body in-process, so every write went through
    // the context object and touched() is the exact dirty extent.
    context_->ScrubForReuse(context_->touched());
    return true;
  }

 private:
  SandboxExecutor* executor_;
};

// ---------------------------------------------------------------------------
// Process warm sandbox: fork-from-template. A child is forked at arm time
// over the MAP_SHARED context and parks on a pipe; memory stays COW-shared
// with the parent image until dispatch. Execute() writes one go byte and
// waits like the cold process backend (cancel → SIGKILL, deadline →
// SIGKILL). The child is single-use; Recycle() re-forks.
//
// Fork-safety caveat (see DESIGN.md; pooling makes fork-then-park the
// steady state, so it bites harder here than on the cold backend): the
// template is forked from a multithreaded runtime — control-plane ticks,
// engine workers running Recycle — and later executes the full function
// body, which allocates. If another thread held an allocator lock at fork
// time, the child's first malloc deadlocks. Arm() therefore makes the
// fresh child touch the heap immediately and write an ack byte; a child
// that misses the ack deadline is killed and the fill falls back to the
// cold path, instead of a wedged template eating a request's whole
// deadline at dispatch before the SIGKILL.
// ---------------------------------------------------------------------------
class ProcessWarmSandbox : public WarmSandbox {
 public:
  ProcessWarmSandbox(dfunc::FunctionSpec spec, std::shared_ptr<MemoryContext> context)
      : WarmSandbox(std::move(spec), std::move(context)) {}

  ~ProcessWarmSandbox() override { DisarmKill(); }

  bool Arm() {
    if (pid_ > 0) {
      return true;  // Template child already parked.
    }
    int fds[2];
    if (pipe(fds) != 0) {
      return false;
    }
    int ack[2];
    if (pipe(ack) != 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    // Jail and fault decisions happen pre-fork (the child must not touch
    // lazily-initialised parent state). Fault points for a pooled child are
    // sampled at arm time: the child is the unit of injection.
    const bool install_jail =
        SyscallJailEnabled() && SandboxCapabilities::Get().seccomp_filter;
    FaultInjector& faults = FaultInjector::Get();
    const bool fault_crash_before =
        faults.ShouldFire(FaultPoint::kChildCrashBeforeOutcome);
    const bool fault_crash_partial =
        faults.ShouldFire(FaultPoint::kChildCrashAfterPartialWrite);
    const bool fault_forbidden = faults.ShouldFire(FaultPoint::kChildForbiddenSyscall);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      close(ack[0]);
      close(ack[1]);
      return false;
    }
    if (pid == 0) {
      close(fds[1]);
      close(ack[0]);
      // Liveness probe (fork-safety caveat above): exercise the allocator
      // the function body will need, then ack. A child that inherited a
      // held malloc lock wedges right here — before the ack — so the
      // parent retires it instead of shelving a time bomb.
      void* probe = malloc(64);
      static volatile void* sink;  // Escape: keeps the pair from being elided.
      sink = probe;
      free(probe);
      char ok = 'a';
      ssize_t w;
      do {
        w = write(ack[1], &ok, 1);
      } while (w < 0 && errno == EINTR);
      close(ack[1]);
      // Confinement starts *after* the ack (the probe needs the allocator's
      // full freedom) and *before* the park, so the whole shelved lifetime
      // is jailed. The filter's only read permission is this go-pipe fd.
      if (install_jail) {
        JailOptions jail_options;
        jail_options.allow_read_fd = fds[0];
        if (InstallSyscallJail(jail_options) != 0) {
          _exit(125);  // Fail closed: never park an unjailed template.
        }
      }
      // Template child: park until dispatch. EOF (parent retired us) or a
      // short read exits without running the body.
      char go = 0;
      ssize_t n;
      do {
        n = read(fds[0], &go, 1);
      } while (n < 0 && errno == EINTR);
      if (n == 1) {
        if (fault_crash_before) __builtin_trap();
        if (fault_forbidden) {
          (void)syscall(SYS_openat, AT_FDCWD, "/dev/null", O_RDONLY);
        }
        (void)RunFunctionBodyAgainstContext(spec_, *context_);
        if (fault_crash_partial) {
          ContextHeader torn;
          torn.state = 0;
          torn.payload_len = context_->capacity();
          context_->WriteHeader(torn);
          __builtin_trap();
        }
      }
      _exit(0);
    }
    close(fds[0]);
    close(ack[1]);
    struct pollfd pfd;
    pfd.fd = ack[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready;
    do {
      ready = poll(&pfd, 1, kArmAckTimeoutMs);
    } while (ready < 0 && errno == EINTR);
    bool alive = ready > 0;
    if (alive) {
      char got = 0;
      ssize_t r;
      do {
        r = read(ack[0], &got, 1);
      } while (r < 0 && errno == EINTR);
      alive = r == 1;
    }
    close(ack[0]);
    if (!alive) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      close(fds[1]);
      return false;
    }
    pid_ = pid;
    go_fd_ = fds[1];
    clean_exit_ = false;
    reaped_ = false;
    return true;
  }

  ExecOutcome Execute(const SandboxOptions& options) override {
    ExecOutcome outcome;
    outcome.timings.pool_hit = true;
    if (pid_ <= 0) {
      outcome.status = dbase::Internal("warm sandbox has no template child");
      return outcome;
    }
    dbase::Stopwatch watch;
    // "Setup" on a pool hit is one pipe write — the fork already happened
    // at fill time. This is the ~0 that distinguishes pool-hit rows from a
    // cold fork in fig02/tab01 breakdowns.
    ssize_t n;
    do {
      n = write(go_fd_, "g", 1);
    } while (n < 0 && errno == EINTR);
    outcome.timings.setup_us = watch.ElapsedMicros();
    if (n != 1) {
      // EPIPE/short write: the template child died between fill and
      // dispatch (OOM kill, operator signal, injected fault). The inputs
      // are already marshalled in our MAP_SHARED context, so the engine can
      // recover with a transparent cold fork over the same context —
      // kPoolChildLost tells it to.
      ReapChild();
      outcome.failure = dpolicy::FailureKind::kPoolChildLost;
      outcome.status = dbase::Unavailable(dbase::StrFormat(
          "warm sandbox template child for '%s' died before dispatch", spec_.name.c_str()));
      return outcome;
    }

    watch.Restart();
    const dbase::Micros timeout =
        options.timeout_us > 0 ? options.timeout_us : spec_.timeout_us;
    const dbase::Micros deadline = dbase::MonotonicClock::Get()->NowMicros() + timeout;
    int wait_status = 0;
    bool timed_out = false;
    bool cancelled = false;
    while (true) {
      const pid_t done = waitpid(pid_, &wait_status, WNOHANG);
      if (done == pid_) {
        break;
      }
      if (done < 0) {
        pid_ = -1;
        CloseGoFd();
        outcome.status = dbase::Internal("waitpid failed");
        return outcome;
      }
      if (options.cancel_flag != nullptr &&
          options.cancel_flag->load(std::memory_order_relaxed)) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &wait_status, 0);
        cancelled = true;
        break;
      }
      if (dbase::MonotonicClock::Get()->NowMicros() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &wait_status, 0);
        timed_out = true;
        break;
      }
      std::this_thread::yield();
    }
    pid_ = -1;
    CloseGoFd();
    outcome.timings.execute_us = watch.ElapsedMicros();

    watch.Restart();
    const WaitDecode decode = DecodeWaitStatus(wait_status, spec_.name);
    if (cancelled) {
      outcome.failure = dpolicy::FailureKind::kCancelKill;
      outcome.status = dbase::Cancelled(
          dbase::StrFormat("function '%s' killed on cancellation", spec_.name.c_str()));
    } else if (timed_out) {
      outcome.failure = dpolicy::FailureKind::kDeadlineKill;
      outcome.status = dbase::DeadlineExceeded(
          dbase::StrFormat("function '%s' killed after %lld us timeout", spec_.name.c_str(),
                           static_cast<long long>(timeout)));
    } else if (decode.kind != dpolicy::FailureKind::kNone) {
      outcome.failure = decode.kind;
      outcome.status = decode.status;
    } else {
      clean_exit_ = true;
      auto outputs = context_->LoadOutputSets();
      if (outputs.ok()) {
        outcome.outputs = std::move(outputs).value();
        outcome.status = dbase::OkStatus();
      } else {
        outcome.status = outputs.status();
      }
    }
    outcome.timings.output_us = watch.ElapsedMicros();
    return outcome;
  }

  bool Recycle() override {
    if (pid_ > 0) {
      // Never dispatched (e.g. the invocation died in the queue): only the
      // parent's input marshalling dirtied the context; the parked child
      // stays armed over the re-zeroed region.
      context_->ScrubForReuse(context_->touched());
      return true;
    }
    uint64_t extent = context_->capacity();
    if (clean_exit_) {
      // The child wrote [0, header + payload); trust its header only after
      // a clean exit — a SIGKILLed child may have left a torn header, and
      // then only a full-extent scrub guarantees no state survives.
      const ContextHeader header = context_->ReadHeader();
      const uint64_t child_extent =
          kContextHeaderBytes +
          std::min<uint64_t>(header.payload_len, context_->capacity());
      extent = std::max(context_->touched(), child_extent);
    }
    context_->ScrubForReuse(extent);
    return Arm();
  }

  void SimulateTemplateDeath() override {
    // Kill and reap the parked child but leave the bookkeeping (pid_,
    // go_fd_) believing it is alive, so the next Execute() discovers the
    // death the way production would: the go-pipe write fails. reaped_
    // keeps the later cleanup from kill()ing a recycled pid.
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      reaped_ = true;
    }
  }

 private:
  void CloseGoFd() {
    if (go_fd_ >= 0) {
      close(go_fd_);
      go_fd_ = -1;
    }
  }

  void ReapChild() {
    if (pid_ > 0) {
      if (!reaped_) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
      }
      reaped_ = false;
      pid_ = -1;
    }
    CloseGoFd();
  }

  // A parked template child is killed outright on retire: closing the go
  // pipe would wake it too, but later-forked siblings inherit this pipe's
  // write end and would hold EOF open indefinitely.
  void DisarmKill() { ReapChild(); }

  pid_t pid_ = -1;
  int go_fd_ = -1;
  bool clean_exit_ = false;
  // Set when SimulateTemplateDeath already reaped the child while pid_
  // still reads as armed (the injected-death seam).
  bool reaped_ = false;
};

}  // namespace

// ---------------------------------------------------------------- SandboxPool

SandboxPool::SandboxPool(Config config, MemoryAccountant* accountant)
    : config_(std::move(config)),
      costs_(BackendCostModel::Defaults(config_.backend)),
      executor_(CreateSandboxExecutor(config_.backend)),
      accountant_(accountant) {
  config_.max_depth_per_function = std::max(0, config_.max_depth_per_function);
  config_.max_total = std::max(0, config_.max_total);
  config_.interactive_reserve = std::max(0, config_.interactive_reserve);
  if (config_.backend == IsolationBackend::kProcess) {
    IgnoreSigpipeOnce();
  }
}

SandboxPool::~SandboxPool() { Shutdown(); }

SandboxPool::FunctionPool& SandboxPool::PoolForLocked(const dfunc::FunctionSpec& spec) {
  auto it = pools_.find(spec.name);
  if (it == pools_.end()) {
    FunctionPool pool;
    pool.spec = spec;
    pool.policy = config_.policy_factory
                      ? config_.policy_factory()
                      : std::make_unique<dpolicy::PrewarmPolicy>(config_.prewarm);
    it = pools_.emplace(spec.name, std::move(pool)).first;
  }
  return it->second;
}

std::shared_ptr<WarmSandbox> SandboxPool::CreateWarm(const dfunc::FunctionSpec& spec) {
  const bool shared = config_.backend == IsolationBackend::kProcess;
  auto context_result = MemoryContext::Create(spec.context_bytes, accountant_, shared);
  if (!context_result.ok()) {
    return nullptr;
  }
  std::shared_ptr<MemoryContext> context = std::move(context_result).value();

  // Pay the Table 1 load (and, for thread-flavoured backends, setup) cost
  // models now, at fill time — this is exactly the cost a pool hit no
  // longer pays on the critical path.
  dbase::SpinFor(ModeledLoadCostUs(costs_, spec.binary_bytes, /*cached=*/true));
  if (config_.backend == IsolationBackend::kProcess) {
    auto warm = std::make_shared<ProcessWarmSandbox>(spec, std::move(context));
    if (!warm->Arm()) {
      return nullptr;
    }
    return warm;
  }
  dbase::SpinFor(costs_.setup_us);
  return std::make_shared<ThreadWarmSandbox>(spec, std::move(context), executor_.get());
}

std::shared_ptr<WarmSandbox> SandboxPool::Acquire(const dfunc::FunctionSpec& spec,
                                                  PriorityClass priority) {
  if (draining_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  FunctionPool& pool = PoolForLocked(spec);
  ++pool.arrivals;
  ++stats_.arrivals;
  if (pool.shelved.empty()) {
    ++stats_.misses;
    return nullptr;
  }
  if (priority == PriorityClass::kBatch &&
      static_cast<int>(pool.shelved.size()) <= config_.interactive_reserve) {
    // The shelf is down to the interactive reserve: batch work takes the
    // cold path so priority requests keep bypassing it.
    ++stats_.bypassed;
    ++stats_.misses;
    return nullptr;
  }
  std::shared_ptr<WarmSandbox> warm = std::move(pool.shelved.back());
  pool.shelved.pop_back();
  ++pool.leased;
  --total_shelved_;
  ++total_leased_;
  ++stats_.hits;
  if (FaultInjector::Get().ShouldFire(FaultPoint::kPoolTemplateDeath)) {
    warm->SimulateTemplateDeath();
  }
  return warm;
}

void SandboxPool::CountChildLost() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.pool_child_lost;
}

void SandboxPool::Release(std::shared_ptr<WarmSandbox> sandbox) {
  if (sandbox == nullptr) {
    return;
  }
  bool keep = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pools_.find(sandbox->spec().name);
    if (it != pools_.end() && it->second.leased > 0) {
      --it->second.leased;
      --total_leased_;
      keep = !draining_.load(std::memory_order_relaxed) &&
             static_cast<int>(it->second.shelved.size()) + it->second.leased <
                 it->second.target &&
             static_cast<int>(it->second.shelved.size()) < config_.max_depth_per_function &&
             total_shelved_ < config_.max_total;
    }
  }
  // Scrub + re-arm outside the lock: the re-fork of a process template is
  // the expensive half of "return-on-completion" and must not serialize
  // Acquires.
  if (keep && sandbox->Recycle()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pools_.find(sandbox->spec().name);
    if (it != pools_.end() && !draining_.load(std::memory_order_relaxed) &&
        static_cast<int>(it->second.shelved.size()) < config_.max_depth_per_function &&
        total_shelved_ < config_.max_total) {
      it->second.shelved.push_back(std::move(sandbox));
      ++total_shelved_;
      ++stats_.recycled;
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.retired;
  // The sandbox destructor (outside this function) kills any parked child
  // and returns the context region.
}

void SandboxPool::Tick(dbase::Micros now_us) {
  if (draining_.load(std::memory_order_relaxed)) {
    return;
  }
  struct FillPlan {
    dfunc::FunctionSpec spec;
    int count = 0;
  };
  std::vector<FillPlan> fills;
  std::vector<std::shared_ptr<WarmSandbox>> retire;  // Destroyed outside mu_.
  int planned = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, pool] : pools_) {
      dpolicy::PrewarmSignals signals;
      signals.now_us = now_us;
      signals.arrivals = pool.arrivals;
      signals.shelved = static_cast<int>(pool.shelved.size());
      signals.leased = pool.leased;
      dpolicy::PrewarmDecision decision = pool.policy->Decide(signals);
      decision.target_depth = std::min(decision.target_depth, config_.max_depth_per_function);
      pool.target = decision.target_depth;
      pool.last_decision = decision;

      // Retire shelved sandboxes above the target immediately; the fill
      // half runs outside the lock.
      while (static_cast<int>(pool.shelved.size()) + pool.leased > pool.target &&
             !pool.shelved.empty()) {
        retire.push_back(std::move(pool.shelved.back()));
        pool.shelved.pop_back();
        --total_shelved_;
        ++stats_.retired;
      }
      const int want = pool.target - static_cast<int>(pool.shelved.size()) - pool.leased;
      const int room = config_.max_total - total_shelved_ - planned;
      const int count = std::clamp(want, 0, std::max(0, room));
      if (count > 0) {
        fills.push_back(FillPlan{pool.spec, count});
        planned += count;
      }
    }
  }
  retire.clear();

  for (const auto& plan : fills) {
    for (int i = 0; i < plan.count; ++i) {
      std::shared_ptr<WarmSandbox> warm = CreateWarm(plan.spec);
      if (warm == nullptr) {
        break;
      }
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pools_.find(plan.spec.name);
      if (it == pools_.end() || draining_.load(std::memory_order_relaxed) ||
          static_cast<int>(it->second.shelved.size()) >= config_.max_depth_per_function ||
          total_shelved_ >= config_.max_total) {
        ++stats_.retired;
        break;  // Destroyed outside via warm's destructor on scope exit.
      }
      it->second.shelved.push_back(std::move(warm));
      ++total_shelved_;
      ++stats_.prewarm_fills;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  depth_trace_.emplace_back(now_us, total_shelved_);
  // Bounded like the control plane's decision history.
  constexpr size_t kTraceLimit = 65536;
  if (depth_trace_.size() > kTraceLimit) {
    depth_trace_.erase(depth_trace_.begin(),
                       depth_trace_.begin() + (depth_trace_.size() - kTraceLimit));
  }
}

void SandboxPool::Shutdown() {
  draining_.store(true, std::memory_order_relaxed);
  std::vector<std::shared_ptr<WarmSandbox>> drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, pool] : pools_) {
      for (auto& warm : pool.shelved) {
        drop.push_back(std::move(warm));
      }
      pool.shelved.clear();
      pool.target = 0;
    }
    total_shelved_ = 0;
    stats_.retired += drop.size();
  }
  drop.clear();  // Kills parked template children, unmaps contexts.
}

SandboxPoolStats SandboxPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SandboxPoolStats stats = stats_;
  stats.shelved = total_shelved_;
  stats.leased = total_leased_;
  stats.functions = static_cast<int>(pools_.size());
  stats.max_total = config_.max_total;
  return stats;
}

std::vector<std::pair<dbase::Micros, int>> SandboxPool::DepthTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_trace_;
}

std::vector<std::pair<std::string, dpolicy::PrewarmDecision>> SandboxPool::LastDecisions()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, dpolicy::PrewarmDecision>> decisions;
  decisions.reserve(pools_.size());
  for (const auto& [name, pool] : pools_) {
    decisions.emplace_back(name, pool.last_decision);
  }
  return decisions;
}

}  // namespace dandelion
