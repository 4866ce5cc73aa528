#include "src/runtime/sandbox_pool.h"

#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>

#include "src/base/string_util.h"
#include "src/runtime/fault.h"

namespace dandelion {

namespace {

// Serialized size of ContextHeader ([u32][i32][u64]); the parent widens
// the scrub extent past its own touched() mark to cover the child's
// outcome writes starting at offset 0.
constexpr uint64_t kContextHeaderBytes = 16;

// ---------------------------------------------------------------------------
// Thread warm sandbox: a ready context; execution delegates to the shared
// executor and reports pool_hit.
// ---------------------------------------------------------------------------
class ThreadWarmSandbox : public WarmSandbox {
 public:
  ThreadWarmSandbox(dfunc::FunctionSpec spec, std::shared_ptr<MemoryContext> context,
                    SandboxExecutor* executor)
      : WarmSandbox(std::move(spec), std::move(context)), executor_(executor) {}

  ExecOutcome Execute(const SandboxOptions& options) override {
    ExecOutcome outcome = executor_->Execute(spec_, *context_, options);
    outcome.timings.pool_hit = true;
    return outcome;
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
// Process warm sandbox: fork-from-template. ForkSandboxChild parks a child
// over the MAP_SHARED context at arm time; memory stays COW-shared with the
// parent image until dispatch. Execute() sends one go byte and waits like
// the cold process backend, through the same AwaitSandboxChild. The child is
// single-use; Recycle() re-forks.
//
// Fork-safety caveat (see DESIGN.md; pooling makes fork-then-park the
// steady state, so it bites harder here than on the cold backend): the
// template is forked from a multithreaded runtime and later executes the
// full function body, which allocates. If another thread held an allocator
// lock at fork time, the child's first malloc deadlocks — so a parked child
// touches the heap and acks before ForkSandboxChild returns it, and one
// that misses the ack is killed and the fill falls back to the cold path.
// ---------------------------------------------------------------------------
class ProcessWarmSandbox : public WarmSandbox {
 public:
  ProcessWarmSandbox(dfunc::FunctionSpec spec, std::shared_ptr<MemoryContext> context)
      : WarmSandbox(std::move(spec), std::move(context)) {}

  // A parked template child is killed outright on retire: closing the go
  // channel would wake it too, but later-forked siblings inherit the
  // parent's end and would hold EOF off indefinitely.
  ~ProcessWarmSandbox() override { ReapChild(); }

  bool Arm() {
    if (child_.pid <= 0) {
      child_ = ForkSandboxChild(spec_, *context_, /*park=*/true);
      clean_exit_ = false;
    }
    return child_.pid > 0;
  }

  ExecOutcome Execute(const SandboxOptions& options) override {
    ExecOutcome outcome;
    outcome.timings.pool_hit = true;
    if (child_.pid <= 0) {
      outcome.status = dbase::Internal("warm sandbox has no template child");
      return outcome;
    }
    dbase::Stopwatch watch;
    // "Setup" on a pool hit is one send — the fork already happened at fill
    // time. This is the ~0 that distinguishes pool-hit rows from a cold fork
    // in fig02/tab01 breakdowns. MSG_NOSIGNAL turns a dead template into
    // EPIPE here instead of a process-killing SIGPIPE.
    ssize_t n;
    do {
      n = send(child_.go_fd, "g", 1, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    outcome.timings.setup_us = watch.ElapsedMicros();
    if (n != 1) {
      // EPIPE: the template child died between fill and dispatch (OOM
      // kill, operator signal, injected fault). The inputs are already
      // marshalled in our MAP_SHARED context, so the engine can recover
      // with a transparent cold fork over the same context — kPoolChildLost
      // tells it to.
      ReapChild();
      outcome.failure = dpolicy::FailureKind::kPoolChildLost;
      outcome.status = dbase::Unavailable(dbase::StrFormat(
          "warm sandbox template child for '%s' died before dispatch", spec_.name.c_str()));
      return outcome;
    }
    const pid_t pid = child_.pid;
    CloseGoFd();
    child_.pid = -1;
    outcome = AwaitSandboxChild(pid, spec_, *context_, options, outcome.timings);
    clean_exit_ = outcome.failure == dpolicy::FailureKind::kNone;
    return outcome;
  }

  bool Recycle() override {
    if (child_.pid > 0) {
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
    // Kill the parked child and wait until it is a zombie, but leave the
    // bookkeeping believing it is alive, so the next Execute() discovers
    // the death the way production would: the go send fails. Not reaping
    // keeps the pid ours, so the later cleanup cannot hit a recycled pid.
    if (child_.pid > 0) {
      kill(child_.pid, SIGKILL);
      siginfo_t info;
      while (waitid(P_PID, static_cast<id_t>(child_.pid), &info, WEXITED | WNOWAIT) != 0 &&
             errno == EINTR) {
      }
    }
  }

 private:
  void CloseGoFd() {
    if (child_.go_fd >= 0) {
      close(child_.go_fd);
      child_.go_fd = -1;
    }
  }

  void ReapChild() {
    if (child_.pid > 0) {
      kill(child_.pid, SIGKILL);
      waitpid(child_.pid, nullptr, 0);
      child_.pid = -1;
    }
    CloseGoFd();
  }

  SandboxChild child_;
  bool clean_exit_ = false;
};

}  // namespace

// ---------------------------------------------------------------- SandboxPool

SandboxPool::SandboxPool(Config config, MemoryAccountant* accountant)
    : config_(std::move(config)),
      executor_(CreateSandboxExecutor(config_.backend)),
      accountant_(accountant) {
  config_.max_depth_per_function = std::max(0, config_.max_depth_per_function);
  config_.max_total = std::max(0, config_.max_total);
  config_.interactive_reserve = std::max(0, config_.interactive_reserve);
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
  if (config_.backend == IsolationBackend::kProcess) {
    auto warm = std::make_shared<ProcessWarmSandbox>(spec, std::move(context));
    if (!warm->Arm()) {
      return nullptr;
    }
    return warm;
  }
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

void SandboxPool::RequestTick(dbase::Micros now_us) {
  std::lock_guard<std::mutex> lock(fill_mu_);
  if (draining_.load(std::memory_order_relaxed)) {
    return;
  }
  fill_now_ = now_us;
  if (!fill_thread_.joinable()) {
    fill_thread_ = dbase::JoiningThread("pool-fill", [this] { FillLoop(); });
  } else {
    fill_cv_.notify_one();
  }
}

void SandboxPool::FillLoop() {
  std::unique_lock<std::mutex> lock(fill_mu_);
  while (true) {
    fill_cv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) || fill_now_.has_value();
    });
    if (draining_.load(std::memory_order_relaxed)) {
      return;
    }
    const dbase::Micros now_us = *std::exchange(fill_now_, std::nullopt);
    lock.unlock();
    Tick(now_us);
    lock.lock();
  }
}

void SandboxPool::Shutdown() {
  {
    // Under fill_mu_, so the fill thread cannot miss it between its check
    // and its wait, and no request starts a thread after the join below.
    std::lock_guard<std::mutex> lock(fill_mu_);
    draining_.store(true, std::memory_order_relaxed);
  }
  fill_cv_.notify_all();
  fill_thread_.Join();  // A running fill shelves nothing past the drain below.
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
