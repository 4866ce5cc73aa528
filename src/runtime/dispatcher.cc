#include "src/runtime/dispatcher.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/runtime/comm_function.h"

namespace dandelion {

// ------------------------------------------------------------- Registry

dbase::Status CompositionRegistry::Register(ddsl::CompositionGraph graph) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = graph.name();
  auto [it, inserted] =
      graphs_.emplace(name, std::make_shared<const ddsl::CompositionGraph>(std::move(graph)));
  if (!inserted) {
    return dbase::AlreadyExists("composition already registered: " + name);
  }
  return dbase::OkStatus();
}

dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> CompositionRegistry::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return dbase::NotFound("no registered composition named " + name);
  }
  return it->second;
}

bool CompositionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.count(name) > 0;
}

std::vector<std::string> CompositionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, graph] : graphs_) {
    names.push_back(name);
  }
  return names;
}

// ------------------------------------------------------- Invocation state

namespace {

struct NodeRuntime {
  // Input bindings whose source value is not yet available.
  int deps_remaining = 0;
  bool started = false;
  bool merged = false;
  // One DataSetList per instance, in deterministic instance order.
  std::vector<dfunc::DataSetList> instance_outputs;
  size_t instances_pending = 0;
};

}  // namespace

struct Dispatcher::InvocationState {
  std::shared_ptr<const ddsl::CompositionGraph> graph;
  int depth = 0;
  // Shared across nesting levels: the root's deadline, class, and cancel
  // flag govern the whole invocation tree.
  std::shared_ptr<InvocationControl> control;

  std::mutex mu;
  std::map<std::string, dfunc::DataSet> values;  // Ready values by name.
  std::vector<NodeRuntime> nodes;
  size_t nodes_remaining = 0;
  bool done = false;
  ResultCallback callback;
  // A root's deadline timer, cancelled at its end; 0 = none.
  dbase::EventLoop::TimerId deadline_timer = 0;
};

// -------------------------------------------------------------- Dispatcher

Dispatcher::Dispatcher(const dfunc::FunctionRegistry* functions,
                       const CompositionRegistry* compositions,
                       const CommFunctionRegistry* comm_functions, WorkerSet* workers,
                       MemoryAccountant* accountant, Config config)
    : timers_(std::make_shared<dbase::EventLoop::Scope>(dbase::EventLoop::Process())),
      functions_(functions),
      compositions_(compositions),
      comm_functions_(comm_functions),
      workers_(workers),
      accountant_(accountant),
      config_(config),
      retry_policy_(config.retry) {}

Dispatcher::~Dispatcher() {
  // Timers first: once the scope is closed no deadline, stop hook or
  // relaunch runs, or ever will. Each pending relaunch then fails with its
  // original status, so every in-flight invocation still completes exactly
  // once.
  timers_->Close();
  std::map<dbase::EventLoop::TimerId, std::shared_ptr<RetryJob>> retries;
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    retries.swap(retry_jobs_);
  }
  for (const auto& [timer, job] : retries) {
    OnInstanceDone(job->inv, job->node_index, job->instance_index, job->original_status);
  }
}

DispatcherStats Dispatcher::Stats() const {
  DispatcherStats stats;
  stats.invocations_started = invocations_started_.load(std::memory_order_relaxed);
  stats.invocations_completed = invocations_completed_.load(std::memory_order_relaxed);
  stats.invocations_failed = invocations_failed_.load(std::memory_order_relaxed);
  stats.invocations_cancelled = invocations_cancelled_.load(std::memory_order_relaxed);
  stats.invocations_deadline_exceeded =
      invocations_deadline_exceeded_.load(std::memory_order_relaxed);
  stats.compute_instances = compute_instances_.load(std::memory_order_relaxed);
  stats.comm_instances = comm_instances_.load(std::memory_order_relaxed);
  stats.skipped_instances = skipped_instances_.load(std::memory_order_relaxed);
  const auto gauge = [&](PriorityClass priority) {
    const int64_t value =
        inflight_by_class_[static_cast<size_t>(priority)].load(std::memory_order_relaxed);
    return static_cast<uint64_t>(std::max<int64_t>(0, value));
  };
  stats.inflight_interactive = gauge(PriorityClass::kInteractive);
  stats.inflight_batch = gauge(PriorityClass::kBatch);
  const auto data_plane = dfunc::DataPlaneStats::Get().snapshot();
  stats.bytes_copied = data_plane.bytes_copied;
  stats.bytes_aliased = data_plane.bytes_aliased;
  stats.payload_promotions = data_plane.payload_promotions;
  stats.cow_detaches = data_plane.cow_detaches;
  stats.binding_materializations = data_plane.binding_materializations;
  stats.sandbox_failures = sandbox_failures_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    const dpolicy::RetryPolicyStats retry = retry_policy_.Stats();
    stats.retries_attempted = retry.retries_granted;
    stats.retries_denied = retry.retries_denied_budget + retry.retries_denied_kind;
    stats.breaker_fast_fails = retry.breaker_fast_fails;
    stats.breaker_trips = retry.breaker_trips;
    stats.breaker_recoveries = retry.breaker_recoveries;
    stats.breakers_open = retry.breakers_open;
  }
  return stats;
}

std::vector<dpolicy::BreakerSnapshot> Dispatcher::Breakers() const {
  std::lock_guard<std::mutex> lock(retry_mu_);
  return retry_policy_.Breakers();
}

InvocationHandle Dispatcher::Submit(InvocationRequest request, ResultCallback callback) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  const uint64_t id =
      request.id != 0 ? request.id : next_invocation_id_.fetch_add(1, std::memory_order_relaxed);
  auto control =
      std::make_shared<InvocationControl>(id, request.priority, request.deadline_us, now);
  InvocationHandle handle(control);
  auto graph = compositions_->Lookup(request.composition);
  if (!graph.ok()) {
    control->MarkDone(graph.status(), now);
    if (callback) {
      callback(graph.status());
    }
    return handle;
  }
  const auto class_index = static_cast<size_t>(request.priority);
  inflight_by_class_[class_index].fetch_add(1, std::memory_order_relaxed);

  // Root-terminal bookkeeping wraps the user callback so it runs no matter
  // which path (completion, failure, stop hook) finishes first.
  ResultCallback wrapped = [this, control, class_index, cb = std::move(callback)](
                               dbase::Result<dfunc::DataSetList> result) mutable {
    control->MarkDone(result.status(), dbase::MonotonicClock::Get()->NowMicros());
    inflight_by_class_[class_index].fetch_sub(1, std::memory_order_relaxed);
    if (cb) {
      cb(std::move(result));
    }
  };
  const std::shared_ptr<InvocationState> inv =
      NewInvocation(std::move(graph).value(), 0, std::move(wrapped), control);

  // The one stop path: whichever of Cancel(), the deadline timer, a seam's
  // RetireStatus or a blocking caller's timeout stops the invocation first,
  // the hook fails the root with the recorded reason. A seam runs it under
  // the invocation's lock, so it only posts; the post is dropped once the
  // dispatcher is gone. While a forked instance runs, the hook leaves the
  // end to that instance: the stop kills it within a stop-check slice and
  // its report, carrying the kill's failure kind, fails the root.
  control->set_stop_hook([this, timers = timers_, weak = std::weak_ptr<InvocationState>(inv)] {
    timers->Post([this, weak] {
      const std::shared_ptr<InvocationState> root = weak.lock();
      if (root == nullptr || root->control->forked_running()) {
        return;
      }
      std::unique_lock<std::mutex> lock(root->mu);
      FailLocked(root, root->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()));
    });
  });
  if (request.deadline_us > 0) {
    // Stored under the lock: a deadline already past fires at once, and
    // the hook's FailLocked must find the id to cancel.
    std::lock_guard<std::mutex> lock(inv->mu);
    inv->deadline_timer = timers_->AddTimer(
        request.deadline_us - now, [weak = std::weak_ptr<InvocationControl>(control)] {
          if (const std::shared_ptr<InvocationControl> live = weak.lock()) {
            live->RequestStop(dbase::StatusCode::kDeadlineExceeded);
          }
        });
  }
  StartGraph(inv, std::move(request.args));
  return handle;
}

dbase::Result<dfunc::DataSetList> Dispatcher::Invoke(InvocationRequest request) {
  dbase::Micros until_us =
      dbase::MonotonicClock::Get()->NowMicros() + config_.max_blocking_wait_us;
  // When the request's own deadline bounds the wait, that is the recorded
  // reason — every observer (counters, report, HTTP mapping) then agrees
  // on kDeadlineExceeded.
  dbase::StatusCode reason = dbase::StatusCode::kCancelled;
  if (request.deadline_us > 0 && request.deadline_us <= until_us) {
    until_us = request.deadline_us;
    reason = dbase::StatusCode::kDeadlineExceeded;
  }
  auto wait = std::make_shared<BlockingWait<dbase::Result<dfunc::DataSetList>>>();
  const InvocationHandle handle = Submit(
      std::move(request),
      [wait](dbase::Result<dfunc::DataSetList> result) { wait->Set(std::move(result)); });
  if (auto result = wait->Await(handle, until_us, reason)) {
    return std::move(*result);
  }
  return dbase::DeadlineExceeded("blocking invoke timed out");
}

std::shared_ptr<Dispatcher::InvocationState> Dispatcher::NewInvocation(
    std::shared_ptr<const ddsl::CompositionGraph> graph, int depth, ResultCallback callback,
    std::shared_ptr<InvocationControl> control) {
  invocations_started_.fetch_add(1, std::memory_order_relaxed);
  auto inv = std::make_shared<InvocationState>();
  inv->graph = std::move(graph);
  inv->depth = depth;
  inv->control = std::move(control);
  inv->callback = std::move(callback);
  inv->nodes.resize(inv->graph->nodes().size());
  inv->nodes_remaining = inv->graph->nodes().size();
  return inv;
}

void Dispatcher::StartGraph(const std::shared_ptr<InvocationState>& inv,
                            dfunc::DataSetList args) {
  std::lock_guard<std::mutex> lock(inv->mu);
  // Bind arguments to parameters. A missing argument set becomes an empty
  // set — downstream conditional execution then decides what runs (§4.4).
  for (const auto& param : inv->graph->params()) {
    dfunc::DataSet* arg = dfunc::FindSet(args, param);
    dfunc::DataSet set;
    set.name = param;
    if (arg != nullptr) {
      set.items = std::move(arg->items);  // `args` is ours; no copy.
    }
    inv->values.emplace(param, std::move(set));
  }

  // Count dependencies, then start every node whose inputs are all
  // parameters (or whose deps are already satisfied).
  const auto& nodes = inv->graph->nodes();
  for (size_t n = 0; n < nodes.size(); ++n) {
    int deps = 0;
    for (const auto& in : nodes[n].inputs) {
      if (inv->values.count(in.source_value) == 0) {
        ++deps;
      }
    }
    inv->nodes[n].deps_remaining = deps;
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (inv->nodes[n].deps_remaining == 0) {
      StartNodeLocked(inv, n);
      if (inv->done) {
        return;
      }
    }
  }
  MaybeCompleteLocked(inv);
}

namespace {

// Items of one non-fanout binding, materialized once per node start and
// shared across every instance of the fan-out.
using SharedItems = std::shared_ptr<const std::vector<dfunc::DataItem>>;

// Builds the input sets for one instance. `fanout_binding` is the index of
// the each/key binding (or npos), and `fanout_items` the items for this
// instance of that binding (consumed). Non-fanout bindings reference the
// per-binding shared materialization: since every source payload was
// promoted to a refcounted buffer at node start, the per-instance vector
// copy is refcount bumps, not byte copies — N instances of an `each`
// fan-out all read the one underlying region.
dfunc::DataSetList BuildInstanceInputs(const ddsl::GraphNode& node,
                                       const std::vector<SharedItems>& shared_items,
                                       size_t fanout_binding,
                                       std::vector<dfunc::DataItem> fanout_items) {
  dfunc::DataSetList inputs;
  inputs.reserve(node.inputs.size());
  for (size_t b = 0; b < node.inputs.size(); ++b) {
    const auto& binding = node.inputs[b];
    dfunc::DataSet set;
    set.name = binding.set_name;
    if (b == fanout_binding) {
      set.items = std::move(fanout_items);
    } else {
      set.items = *shared_items[b];
    }
    inputs.push_back(std::move(set));
  }
  return inputs;
}

// §4.4: run only if every non-optional input set has at least one item.
bool InstanceShouldRun(const ddsl::GraphNode& node, const dfunc::DataSetList& inputs) {
  for (size_t b = 0; b < node.inputs.size(); ++b) {
    if (!node.inputs[b].optional && inputs[b].items.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Dispatcher::StartNodeLocked(const std::shared_ptr<InvocationState>& inv, size_t node_index) {
  NodeRuntime& rt = inv->nodes[node_index];
  if (rt.started || inv->done) {
    return;
  }
  // A dead invocation launches nothing further: this is the earliest seam
  // where a cancel or a passed deadline stops the graph walk.
  if (inv->control != nullptr) {
    const dbase::Status dead =
        inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
    if (!dead.ok()) {
      FailLocked(inv, dead);
      return;
    }
  }
  rt.started = true;

  const ddsl::GraphNode& node = inv->graph->nodes()[node_index];

  // Locate the fan-out binding (validation guarantees at most one).
  size_t fanout_binding = static_cast<size_t>(-1);
  for (size_t b = 0; b < node.inputs.size(); ++b) {
    if (node.inputs[b].dist != ddsl::Distribution::kAll) {
      fanout_binding = b;
      break;
    }
  }

  // Promote every source item payload to a refcounted buffer before any
  // instance references it: from here on, copying a DataItem is a refcount
  // bump, so an N-instance fan-out reads one copy of every input region.
  for (size_t b = 0; b < node.inputs.size(); ++b) {
    dfunc::DataSet& source = inv->values.at(node.inputs[b].source_value);
    for (auto& item : source.items) {
      (void)item.data.EnsureShared();
    }
  }

  // Materialize each non-fanout binding's items exactly once — the sharing
  // invariant the fanout_sharing bench gates on is one materialization per
  // binding, not one per instance.
  auto& data_plane = dfunc::DataPlaneStats::Get();
  std::vector<SharedItems> shared_items(node.inputs.size());
  uint64_t shared_payload_bytes = 0;
  for (size_t b = 0; b < node.inputs.size(); ++b) {
    if (b == fanout_binding) {
      continue;
    }
    const dfunc::DataSet& source = inv->values.at(node.inputs[b].source_value);
    shared_items[b] = std::make_shared<const std::vector<dfunc::DataItem>>(source.items);
    data_plane.binding_materializations.fetch_add(1, std::memory_order_relaxed);
    for (const auto& item : source.items) {
      shared_payload_bytes += item.data.size();
    }
  }

  // Materialize per-instance item groups.
  std::vector<std::vector<dfunc::DataItem>> groups;
  if (fanout_binding == static_cast<size_t>(-1)) {
    groups.emplace_back();  // Single instance; items unused.
  } else {
    const auto& binding = node.inputs[fanout_binding];
    const dfunc::DataSet& source = inv->values.at(binding.source_value);
    if (binding.dist == ddsl::Distribution::kEach) {
      groups.reserve(source.items.size());
      for (const auto& item : source.items) {
        groups.push_back({item});
      }
    } else {  // kKey: group items by key, deterministic key order.
      std::map<std::string, std::vector<dfunc::DataItem>> by_key;
      for (const auto& item : source.items) {
        by_key[item.key].push_back(item);
      }
      groups.reserve(by_key.size());
      for (auto& [key, items] : by_key) {
        groups.push_back(std::move(items));
      }
    }
  }
  // Every instance past the first shares the per-binding materializations
  // by reference instead of duplicating them.
  if (groups.size() > 1) {
    data_plane.bytes_aliased.fetch_add(shared_payload_bytes * (groups.size() - 1),
                                       std::memory_order_relaxed);
  }

  // Build instances, applying the conditional-execution rule per instance.
  struct PendingLaunch {
    size_t instance;
    dfunc::DataSetList inputs;
  };
  std::vector<PendingLaunch> launches;
  rt.instance_outputs.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    dfunc::DataSetList inputs =
        BuildInstanceInputs(node, shared_items, fanout_binding, std::move(groups[g]));
    if (!InstanceShouldRun(node, inputs)) {
      skipped_instances_.fetch_add(1, std::memory_order_relaxed);
      continue;  // Slot stays empty: contributes no output items.
    }
    launches.push_back(PendingLaunch{g, std::move(inputs)});
  }
  rt.instances_pending = launches.size();

  if (launches.empty()) {
    MergeNodeLocked(inv, node_index);
    return;
  }

  // Resolve the callee once. Communication functions shadow everything —
  // their names are platform-reserved.
  enum class Kind { kComm, kCompute, kComposition } kind;
  dfunc::FunctionSpec spec;
  CommFunctionSpec comm_spec;
  std::shared_ptr<const ddsl::CompositionGraph> subgraph;
  // TryLookup: a Lookup miss allocates a NotFound message, and the common
  // (compute) case would pay that on every node start.
  if (auto comm = comm_functions_->TryLookup(node.callee); comm.has_value()) {
    kind = Kind::kComm;
    comm_spec = std::move(*comm);
  } else if (auto fn = functions_->Lookup(node.callee); fn.ok()) {
    kind = Kind::kCompute;
    spec = std::move(fn).value();
  } else if (auto sub = compositions_->Lookup(node.callee); sub.ok()) {
    kind = Kind::kComposition;
    subgraph = std::move(sub).value();
  } else {
    FailLocked(inv, dbase::NotFound(dbase::StrFormat(
                        "callee '%s' is neither a registered function, a platform "
                        "communication function, nor a composition",
                        node.callee.c_str())));
    return;
  }

  // Compute fan-outs are prepared instance by instance but handed to the
  // engines as one batch — a single queue crossing per each/key fan-out
  // instead of one per instance.
  if (kind == Kind::kCompute) {
    std::vector<ComputeTask> batch;
    batch.reserve(launches.size());
    for (auto& launch : launches) {
      auto task = BuildComputeTask(inv, node_index, launch.instance, std::move(launch.inputs),
                                   spec);
      if (!task.has_value()) {
        return;  // BuildComputeTask already failed the invocation.
      }
      batch.push_back(std::move(*task));
    }
    if (!workers_->SubmitComputeBatch(std::move(batch))) {
      FailLocked(inv, dbase::Unavailable("compute engines are shut down"));
    }
    return;
  }

  // Launch outside the loop that mutated runtime state but still under the
  // invocation lock; engine callbacks land on other threads and re-lock.
  for (auto& launch : launches) {
    switch (kind) {
      case Kind::kComm:
        LaunchCommInstance(inv, node_index, launch.instance, std::move(launch.inputs),
                           comm_spec);
        break;
      case Kind::kCompute:
        break;  // Handled above as a batch.
      case Kind::kComposition:
        LaunchNestedInstance(inv, node_index, launch.instance, std::move(launch.inputs), subgraph);
        break;
    }
    if (inv->done) {
      return;  // A synchronous failure aborted the invocation.
    }
  }
}

std::optional<ComputeTask> Dispatcher::BuildComputeTask(
    const std::shared_ptr<InvocationState>& inv, size_t node_index, size_t instance_index,
    dfunc::DataSetList inputs, const dfunc::FunctionSpec& spec, int attempt) {
  compute_instances_.fetch_add(1, std::memory_order_relaxed);

  // Breaker admission gate on fresh launches only: a relaunch the policy
  // already granted must not be fast-failed mid-flight by a breaker that
  // tripped in the meantime — its own OnFailure will feed the breaker.
  if (attempt == 0 && config_.retry.enabled) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    dpolicy::AdmitDecision admit;
    {
      std::lock_guard<std::mutex> lock(retry_mu_);
      admit = retry_policy_.Admit(spec.name, now);
    }
    if (!admit.allow) {
      FailLocked(inv, dbase::Unavailable(dbase::StrFormat(
                          "circuit breaker open for function '%s' (%s)", spec.name.c_str(),
                          admit.reason)));
      return std::nullopt;
    }
  }

  // Retain the inputs while the instance is in flight so a sandbox-level
  // failure can be relaunched from scratch: payloads were promoted to
  // refcounted buffers at node start, so this copy is refcount bumps, not
  // payload bytes.
  std::shared_ptr<const dfunc::DataSetList> retained;
  if (config_.retry.enabled) {
    retained = std::make_shared<const dfunc::DataSetList>(inputs);
  }

  // Pool-first: a warm sandbox already holds a loaded binary and (process
  // backend) a parked template child, so the instance skips the cold path
  // entirely — inputs marshal straight into the warm context.
  std::shared_ptr<WarmSandbox> warm;
  if (config_.sandbox_pool != nullptr) {
    const PriorityClass priority =
        inv->control != nullptr ? inv->control->priority() : PriorityClass::kInteractive;
    warm = config_.sandbox_pool->Acquire(spec, priority);
  }

  std::shared_ptr<MemoryContext> context;
  if (warm != nullptr) {
    context = warm->context();
  } else {
    // Prepare the isolated memory context and copy the inputs in (§5:
    // "ensures that the outputs from prior functions are copied as inputs
    // into the new function's context").
    auto context_result =
        MemoryContext::Create(spec.context_bytes, accountant_, config_.shared_contexts);
    if (!context_result.ok()) {
      FailLocked(inv, context_result.status());
      return std::nullopt;
    }
    context = std::move(context_result).value();
  }
  ComputeTask task;
  if (!config_.shared_contexts) {
    // The in-process thread backend reads inputs by reference: no marshal
    // into the context, no unmarshal out of it — aliased payloads reach the
    // function body as refcount bumps. The
    // capacity bound still applies (outputs must marshal back into the
    // context), so an under-declared memory requirement fails identically
    // on both paths.
    const uint64_t need = dfunc::MarshalledSize(inputs);
    if (need > context->payload_capacity()) {
      if (warm != nullptr) {
        config_.sandbox_pool->Release(std::move(warm));
      }
      FailLocked(inv, dbase::ResourceExhausted(dbase::StrFormat(
                          "inputs (%zu bytes) exceed context capacity (%llu bytes); raise the "
                          "function's declared memory requirement",
                          static_cast<size_t>(need),
                          static_cast<unsigned long long>(context->capacity()))));
      return std::nullopt;
    }
    uint64_t payload_bytes = 0;
    for (const auto& set : inputs) {
      for (const auto& item : set.items) {
        payload_bytes += item.data.size();
      }
    }
    dfunc::DataPlaneStats::Get().bytes_aliased.fetch_add(payload_bytes,
                                                         std::memory_order_relaxed);
    task.options.input_sets =
        retained != nullptr ? retained
                            : std::make_shared<const dfunc::DataSetList>(std::move(inputs));
  } else {
    // Address-space-crossing backends (process) must see the inputs through
    // the MAP_SHARED mapping — marshal them in as before. Pre-forked
    // template children in particular read the context before any
    // SandboxOptions exist.
    if (dbase::Status stored = context->StoreInputSets(inputs); !stored.ok()) {
      if (warm != nullptr) {
        config_.sandbox_pool->Release(std::move(warm));
      }
      FailLocked(inv, stored);
      return std::nullopt;
    }
  }
  task.spec = spec;
  task.context = context;
  task.control = inv->control;
  task.warm = std::move(warm);
  auto self = this;
  task.done = [self, inv, node_index, instance_index, context, spec, retained,
               attempt](ExecOutcome outcome) {
    self->OnComputeOutcome(inv, node_index, instance_index, spec, retained, attempt,
                           std::move(outcome));
  };
  return task;
}

void Dispatcher::OnComputeOutcome(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                                  size_t instance_index, const dfunc::FunctionSpec& spec,
                                  std::shared_ptr<const dfunc::DataSetList> retained_inputs,
                                  int attempt, ExecOutcome outcome) {
  const std::shared_ptr<InvocationControl>& control = inv->control;
  dbase::Status status = outcome.status;
  if (status.ok() && config_.retry.enabled) {
    std::lock_guard<std::mutex> lock(retry_mu_);
    retry_policy_.OnSuccess(spec.name);
  }
  // The sandbox reports any external-flag preemption as kCancelled — it
  // cannot know whether the flag meant a client cancel or the invocation
  // deadline. The control block recorded the reason; make it
  // authoritative so counters, report, and the HTTP status agree. An
  // instance that finished just before its stop's kill fails with it too:
  // the stop hook may have left the end of the invocation to this report.
  if (control != nullptr && control->stop_requested() &&
      (status.ok() || status.code() == dbase::StatusCode::kCancelled)) {
    status = control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
  }

  if (status.ok()) {
    OnInstanceDone(inv, node_index, instance_index, std::move(outcome.outputs));
    return;
  }

  const dpolicy::FailureKind failure = outcome.failure;
  if (failure != dpolicy::FailureKind::kNone) {
    sandbox_failures_.fetch_add(1, std::memory_order_relaxed);
    if (control != nullptr) {
      control->NoteFailure(failure);
    }
  }
  if (config_.retry.enabled && failure != dpolicy::FailureKind::kNone &&
      retained_inputs != nullptr) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    const bool alive = control == nullptr || control->RetireStatus(now).ok();
    const bool interactive =
        control == nullptr || control->priority() == PriorityClass::kInteractive;
    dpolicy::RetryDecision decision;
    {
      std::lock_guard<std::mutex> lock(retry_mu_);
      // The breaker must see every failure, even from an invocation that is
      // already dead — only the relaunch itself is gated on liveness.
      decision = retry_policy_.OnFailure(spec.name, failure, interactive, attempt, now);
    }
    if (decision.retry && alive) {
      if (control != nullptr) {
        control->CountRetry();
      }
      RetryJob job;
      job.inv = inv;
      job.node_index = node_index;
      job.instance_index = instance_index;
      job.spec = spec;
      job.inputs = std::move(retained_inputs);
      job.attempt = attempt + 1;
      job.original_status = status;
      ScheduleRetry(now + decision.backoff_us, std::move(job));
      return;
    }
  }
  OnInstanceDone(inv, node_index, instance_index, std::move(status));
}

// --------------------------------------------------------- Retry relaunch

void Dispatcher::ScheduleRetry(dbase::Micros due_us, RetryJob job) {
  auto pending = std::make_shared<RetryJob>(std::move(job));
  std::lock_guard<std::mutex> lock(retry_mu_);
  // The callback takes retry_mu_ before reading `timer`, so it always sees
  // the id assigned here.
  const dbase::Micros delay = due_us - dbase::MonotonicClock::Get()->NowMicros();
  pending->timer = timers_->AddTimer(delay, [this, pending] {
    {
      std::lock_guard<std::mutex> callback_lock(retry_mu_);
      if (retry_jobs_.erase(pending->timer) == 0) {
        return;  // The destructor took the job and fails it.
      }
    }
    RelaunchCompute(std::move(*pending));
  });
  retry_jobs_.emplace(pending->timer, pending);
}

void Dispatcher::RelaunchCompute(RetryJob job) {
  const std::shared_ptr<InvocationState> inv = job.inv;
  std::unique_lock<std::mutex> lock(inv->mu);
  if (inv->done) {
    return;
  }
  if (inv->control != nullptr) {
    const dbase::Status dead =
        inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
    if (!dead.ok()) {
      lock.unlock();
      OnInstanceDone(inv, job.node_index, job.instance_index, dead);
      return;
    }
  }
  // Always a fresh context: the failed child may have corrupted the old one
  // arbitrarily before it died.
  auto task = BuildComputeTask(inv, job.node_index, job.instance_index,
                               dfunc::DataSetList(*job.inputs), job.spec, job.attempt);
  if (!task.has_value()) {
    return;  // BuildComputeTask already failed the invocation.
  }
  std::vector<ComputeTask> batch;
  batch.push_back(std::move(*task));
  if (!workers_->SubmitComputeBatch(std::move(batch))) {
    FailLocked(inv, dbase::Unavailable("compute engines are shut down"));
  }
}

void Dispatcher::LaunchCommInstance(const std::shared_ptr<InvocationState>& inv,
                                    size_t node_index, size_t instance_index,
                                    dfunc::DataSetList inputs, const CommFunctionSpec& spec) {
  comm_instances_.fetch_add(1, std::memory_order_relaxed);

  // Communication functions take exactly one input set of requests;
  // validation at registration enforces the shape, this is the runtime
  // guard.
  if (inputs.size() != 1) {
    FailLocked(inv, dbase::InvalidArgument("communication function '" + spec.name +
                                           "' takes exactly one input set"));
    return;
  }

  // One sub-call per request item; the instance completes when all items
  // have responses. Responses keep item order.
  auto items = std::make_shared<std::vector<dfunc::DataItem>>(std::move(inputs[0].items));
  if (items->empty()) {
    // Optional empty request set: the instance runs vacuously and produces
    // an empty response set. Resolved inline — we already hold the lock.
    NodeRuntime& rt = inv->nodes[node_index];
    rt.instance_outputs[instance_index].push_back(dfunc::DataSet{spec.response_set, {}});
    if (--rt.instances_pending == 0) {
      MergeNodeLocked(inv, node_index);
    }
    return;
  }
  auto responses = std::make_shared<std::vector<dfunc::DataItem>>(items->size());
  auto remaining = std::make_shared<std::atomic<size_t>>(items->size());

  auto self = this;
  const std::string response_set = spec.response_set;
  for (size_t i = 0; i < items->size(); ++i) {
    CommTask task;
    // Each item is consumed exactly once; an aliased payload moves as a
    // slice handle, never copying the request bytes.
    task.raw_request = std::move((*items)[i].data);
    task.handler = spec.handler;
    task.control = inv->control;
    task.done = [self, inv, node_index, instance_index, responses, remaining, response_set, i](
                    dhttp::HttpResponse response, dbase::Micros) {
      (*responses)[i] = dfunc::DataItem{"", response.Serialize()};
      if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        dfunc::DataSetList outputs;
        outputs.push_back(dfunc::DataSet{response_set, std::move(*responses)});
        self->OnInstanceDone(inv, node_index, instance_index, std::move(outputs));
      }
    };
    if (!workers_->SubmitComm(std::move(task))) {
      FailLocked(inv, dbase::Unavailable("communication engines are shut down"));
      return;
    }
  }
}

void Dispatcher::LaunchNestedInstance(const std::shared_ptr<InvocationState>& inv,
                                      size_t node_index, size_t instance_index,
                                      dfunc::DataSetList inputs,
                                      std::shared_ptr<const ddsl::CompositionGraph> subgraph) {
  if (inv->depth + 1 >= kMaxCompositionDepth) {
    FailLocked(inv, dbase::ResourceExhausted("composition nesting exceeds maximum depth"));
    return;
  }
  // Map instance input sets to sub-composition parameters by name; the DSL
  // binding's set name must equal the parameter name.
  //
  // The nested invocation may complete (or fail) synchronously — e.g. when
  // every inner node is skipped by conditional execution — in which case
  // its callback re-enters OnInstanceDone for *this* invocation. Release
  // our lock across the call so that re-entry cannot deadlock; the node's
  // instances_pending count was fixed before any launches, so concurrent
  // completions of sibling instances cannot prematurely merge the node.
  //
  // The nested graph shares this invocation's control block: cancelling or
  // timing out the root stops the whole tree.
  auto self = this;
  const std::shared_ptr<InvocationState> nested = NewInvocation(
      std::move(subgraph), inv->depth + 1,
      [self, inv, node_index, instance_index](dbase::Result<dfunc::DataSetList> result) {
        self->OnInstanceDone(inv, node_index, instance_index, std::move(result));
      },
      inv->control);
  inv->mu.unlock();
  StartGraph(nested, std::move(inputs));
  inv->mu.lock();
}

void Dispatcher::OnInstanceDone(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                                size_t instance_index,
                                dbase::Result<dfunc::DataSetList> outputs) {
  std::unique_lock<std::mutex> lock(inv->mu);
  if (inv->done) {
    return;  // Invocation already failed or completed; late stragglers drop.
  }
  NodeRuntime& rt = inv->nodes[node_index];
  if (!outputs.ok()) {
    FailLocked(inv, outputs.status());
    return;
  }
  rt.instance_outputs[instance_index] = std::move(outputs).value();
  if (--rt.instances_pending == 0) {
    MergeNodeLocked(inv, node_index);
  }
}

void Dispatcher::MergeNodeLocked(const std::shared_ptr<InvocationState>& inv, size_t node_index) {
  NodeRuntime& rt = inv->nodes[node_index];
  if (rt.merged || inv->done) {
    return;
  }
  rt.merged = true;
  --inv->nodes_remaining;

  const ddsl::GraphNode& node = inv->graph->nodes()[node_index];
  for (const auto& out : node.outputs) {
    dfunc::DataSet merged;
    merged.name = out.value;
    for (auto& instance : rt.instance_outputs) {
      dfunc::DataSet* set = dfunc::FindSet(instance, out.set_name);
      if (set != nullptr) {
        // Instance outputs are cleared right after the merge; move the
        // items (aliased payloads stay aliased) instead of copying.
        merged.items.insert(merged.items.end(), std::make_move_iterator(set->items.begin()),
                            std::make_move_iterator(set->items.end()));
      }
    }
    DeliverValueLocked(inv, out.value, std::move(merged));
    if (inv->done) {
      return;
    }
  }
  rt.instance_outputs.clear();  // Release intermediate copies eagerly.
  MaybeCompleteLocked(inv);
}

void Dispatcher::DeliverValueLocked(const std::shared_ptr<InvocationState>& inv,
                                    const std::string& value, dfunc::DataSet set) {
  inv->values.emplace(value, std::move(set));
  const auto& nodes = inv->graph->nodes();
  for (size_t n = 0; n < nodes.size(); ++n) {
    NodeRuntime& rt = inv->nodes[n];
    if (rt.started) {
      continue;
    }
    for (const auto& in : nodes[n].inputs) {
      if (in.source_value == value) {
        --rt.deps_remaining;
      }
    }
    if (rt.deps_remaining == 0) {
      StartNodeLocked(inv, n);
      if (inv->done) {
        return;
      }
    }
  }
}

void Dispatcher::FailLocked(const std::shared_ptr<InvocationState>& inv, dbase::Status status) {
  if (inv->done) {
    return;
  }
  inv->done = true;
  switch (status.code()) {
    case dbase::StatusCode::kCancelled:
      invocations_cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case dbase::StatusCode::kDeadlineExceeded: {
      // Only the invocation-level deadline feeds the deadline counter. A
      // per-function spec timeout also surfaces as kDeadlineExceeded, but
      // that is a workload failure, not a client-deadline kill — the
      // monitoring signal must not conflate the two.
      const bool invocation_deadline =
          inv->control != nullptr &&
          inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()).code() ==
              dbase::StatusCode::kDeadlineExceeded;
      (invocation_deadline ? invocations_deadline_exceeded_ : invocations_failed_)
          .fetch_add(1, std::memory_order_relaxed);
      break;
    }
    default:
      invocations_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  FinishLocked(inv, std::move(status));
}

void Dispatcher::MaybeCompleteLocked(const std::shared_ptr<InvocationState>& inv) {
  if (inv->done) {
    return;
  }
  // Complete when every declared result value is available. (Some nodes may
  // still be pending if their outputs feed nothing — with nodes_remaining
  // they will be waited for only if they produce results.)
  for (const auto& result : inv->graph->results()) {
    if (inv->values.count(result) == 0) {
      return;
    }
  }
  // A cancel (or a deadline) that landed before the last merge wins over
  // the completed results: the caller was promised a terminal kCancelled /
  // kDeadlineExceeded once the handle said so.
  if (inv->control != nullptr) {
    const dbase::Status dead =
        inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
    if (!dead.ok()) {
      FailLocked(inv, dead);
      return;
    }
  }
  inv->done = true;
  invocations_completed_.fetch_add(1, std::memory_order_relaxed);

  dfunc::DataSetList results;
  results.reserve(inv->graph->results().size());
  for (const auto& result : inv->graph->results()) {
    // The invocation is complete: values are never read again, so the
    // result sets move out instead of copying.
    dfunc::DataSet set = std::move(inv->values.at(result));
    set.name = result;
    results.push_back(std::move(set));
  }
  FinishLocked(inv, std::move(results));
}

void Dispatcher::FinishLocked(const std::shared_ptr<InvocationState>& inv,
                              dbase::Result<dfunc::DataSetList> result) {
  if (inv->deadline_timer != 0) {
    timers_->CancelTimer(std::exchange(inv->deadline_timer, 0));
  }
  ResultCallback callback = std::move(inv->callback);
  // The callback runs outside the lock: unlock responsibility lies with the
  // caller's scope — we temporarily release here to avoid re-entrancy
  // deadlocks when the callback immediately invokes more compositions.
  inv->mu.unlock();
  callback(std::move(result));
  inv->mu.lock();
}

}  // namespace dandelion
