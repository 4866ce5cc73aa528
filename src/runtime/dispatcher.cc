#include "src/runtime/dispatcher.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/runtime/comm_function.h"

namespace dandelion {

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
  // Never null, and shared across nesting levels: the root's deadline,
  // class, and cancel flag govern the whole invocation tree.
  std::shared_ptr<InvocationControl> control;

  // Reactor-only from here on.
  std::map<std::string, dfunc::DataSet> values;  // Ready values by name.
  // One per graph node; empty until StartGraph.
  std::vector<NodeRuntime> nodes;
  bool done = false;
  ResultCallback callback;
  // A root's deadline timer, cancelled at its end; 0 = none.
  dbase::EventLoop::TimerId deadline_timer = 0;
};

// -------------------------------------------------------------- Dispatcher

Dispatcher::Dispatcher(const Registry* registry, WorkerSet* workers,
                       MemoryAccountant* accountant, Config config)
    : scope_(std::make_shared<dbase::EventLoop::Scope>(dbase::EventLoop::Process())),
      registry_(registry),
      workers_(workers),
      accountant_(accountant),
      config_(config),
      retry_policy_(config.retry) {}

Dispatcher::~Dispatcher() {
  // The close runs after every closure posted before it, so engine
  // completions the workers' shutdown drained still land. From then on no
  // completion, deadline, stop hook or relaunch runs; each pending relaunch
  // fails with its original status, so every in-flight invocation still
  // completes exactly once.
  scope_->Close([this] {
    for (RetryJob& job : std::exchange(retry_jobs_, {})) {
      OnInstanceDone(job.inv, job.node_index, job.instance_index, job.original_status);
    }
  });
}

DispatcherStats Dispatcher::Stats() const {
  DispatcherStats stats;
  const auto read = [&] {
    stats.invocations_started = invocations_started_;
    stats.invocations_completed = invocations_completed_;
    stats.invocations_failed = invocations_failed_;
    stats.invocations_cancelled = invocations_cancelled_;
    stats.invocations_deadline_exceeded = invocations_deadline_exceeded_;
    stats.compute_instances = compute_instances_;
    stats.comm_instances = comm_instances_;
    stats.skipped_instances = skipped_instances_;
    const auto gauge = [&](PriorityClass priority) {
      return static_cast<uint64_t>(
          std::max<int64_t>(0, inflight_by_class_[static_cast<size_t>(priority)]));
    };
    stats.inflight_interactive = gauge(PriorityClass::kInteractive);
    stats.inflight_batch = gauge(PriorityClass::kBatch);
    stats.sandbox_failures = sandbox_failures_;
    const dpolicy::RetryPolicyStats retry = retry_policy_.Stats();
    stats.retries_attempted = retry.retries_granted;
    stats.retries_denied = retry.retries_denied_budget + retry.retries_denied_kind;
    stats.breaker_fast_fails = retry.breaker_fast_fails;
    stats.breaker_trips = retry.breaker_trips;
    stats.breaker_recoveries = retry.breaker_recoveries;
    stats.breakers_open = retry.breakers_open;
  };
  if (!scope_->Run(read)) {
    read();  // Closed: no writer remains.
  }
  const auto data_plane = dfunc::DataPlaneStats::Get().snapshot();
  stats.bytes_copied = data_plane.bytes_copied;
  stats.bytes_aliased = data_plane.bytes_aliased;
  stats.binding_materializations = data_plane.binding_materializations;
  return stats;
}

std::vector<dpolicy::BreakerSnapshot> Dispatcher::Breakers() const {
  std::vector<dpolicy::BreakerSnapshot> breakers;
  const auto read = [&] { breakers = retry_policy_.Breakers(); };
  if (!scope_->Run(read)) {
    read();  // Closed: no writer remains.
  }
  return breakers;
}

InvocationHandle Dispatcher::Submit(InvocationRequest request, ResultCallback callback) {
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  const uint64_t id =
      request.id != 0 ? request.id : next_invocation_id_.fetch_add(1, std::memory_order_relaxed);
  auto control =
      std::make_shared<InvocationControl>(id, request.priority, request.deadline_us, now);
  InvocationHandle handle(control);
  // Inline on the reactor; an off-reactor caller posts it.
  const auto on_reactor = [this](auto fn) {
    if (dbase::EventLoop::Process()->IsLoopThread()) {
      fn();
    } else {
      scope_->Post(std::move(fn));
    }
  };
  auto graph = registry_->Lookup(request.composition);
  if (!graph.ok()) {
    control->MarkDone(graph.status(), now);
    if (callback) {
      on_reactor([callback = std::move(callback), status = graph.status()] { callback(status); });
    }
    return handle;
  }
  const auto class_index = static_cast<size_t>(request.priority);

  // Root-terminal bookkeeping wraps the user callback so it runs no matter
  // which path (completion, failure, stop hook) finishes first.
  ResultCallback wrapped = [this, control, class_index, cb = std::move(callback)](
                               dbase::Result<dfunc::DataSetList> result) {
    control->MarkDone(result.status(), dbase::MonotonicClock::Get()->NowMicros());
    --inflight_by_class_[class_index];
    if (cb) {
      cb(std::move(result));
    }
  };
  const std::shared_ptr<InvocationState> inv =
      NewInvocation(std::move(graph).value(), 0, std::move(wrapped), control);

  // The one stop path: whichever of Cancel(), the deadline timer, a seam's
  // RetireStatus or a blocking caller's timeout stops the invocation first,
  // the hook fails the root with the recorded reason. A seam runs it in the
  // middle of a graph walk, so it only posts; the post is dropped once the
  // dispatcher is gone. A root that has not started yet is left to
  // StartGraph, whose first node start retires it. While a forked instance
  // runs, the hook leaves the end to that instance: the stop's eventfd
  // wakes its wait, which kills the child at once, and its report,
  // carrying the kill's failure kind, fails the root.
  control->set_stop_hook([this, scope = scope_, weak = std::weak_ptr<InvocationState>(inv)] {
    scope->Post([this, weak] {
      const std::shared_ptr<InvocationState> root = weak.lock();
      if (root == nullptr || root->nodes.empty() || root->control->forked_running()) {
        return;
      }
      Fail(root, root->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()));
    });
  });
  dbase::EventLoop::TimerId deadline_timer = 0;
  if (request.deadline_us > 0) {
    deadline_timer = scope_->AddTimer(
        request.deadline_us - now, [weak = std::weak_ptr<InvocationControl>(control)] {
          if (const std::shared_ptr<InvocationControl> live = weak.lock()) {
            live->RequestStop(dbase::StatusCode::kDeadlineExceeded);
          }
        });
  }
  on_reactor([this, inv, class_index, deadline_timer, args = std::move(request.args)]() mutable {
    ++inflight_by_class_[class_index];
    inv->deadline_timer = deadline_timer;
    StartGraph(inv, std::move(args));
  });
  return handle;
}

dbase::Result<dfunc::DataSetList> Dispatcher::Invoke(InvocationRequest request) {
  if (dbase::EventLoop::Process()->IsLoopThread()) {
    return dbase::FailedPrecondition(
        "blocking Invoke on the reactor would wait on itself; use Submit");
  }
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
  auto inv = std::make_shared<InvocationState>();
  inv->graph = std::move(graph);
  inv->depth = depth;
  inv->control = std::move(control);
  inv->callback = std::move(callback);
  return inv;
}

void Dispatcher::StartGraph(const std::shared_ptr<InvocationState>& inv,
                            dfunc::DataSetList args) {
  ++invocations_started_;
  const auto& nodes = inv->graph->nodes();
  inv->nodes.resize(nodes.size());
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
      StartNode(inv, n);
      if (inv->done) {
        return;
      }
    }
  }
  MaybeComplete(inv);
}

namespace {

// Items of one non-fanout binding, materialized once per node start and
// shared across every instance of the fan-out.
using SharedItems = std::shared_ptr<const std::vector<dfunc::DataItem>>;

// Builds the input sets for one instance. `fanout_binding` is the index of
// the each/key binding (or npos), and `fanout_items` the items for this
// instance of that binding (consumed). Non-fanout bindings reference the
// per-binding shared materialization: every payload is a refcounted
// slice, so the per-instance vector copy is refcount bumps, not byte
// copies — N instances of an `each` fan-out all read the one underlying
// region.
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

void Dispatcher::StartNode(const std::shared_ptr<InvocationState>& inv, size_t node_index) {
  NodeRuntime& rt = inv->nodes[node_index];
  if (rt.started || inv->done) {
    return;
  }
  // A dead invocation launches nothing further: this is the earliest seam
  // where a cancel or a passed deadline stops the graph walk.
  if (const dbase::Status dead =
          inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
      !dead.ok()) {
    Fail(inv, dead);
    return;
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
      ++skipped_instances_;
      continue;  // Slot stays empty: contributes no output items.
    }
    launches.push_back(PendingLaunch{g, std::move(inputs)});
  }
  rt.instances_pending = launches.size();

  if (launches.empty()) {
    MergeNode(inv, node_index);
    return;
  }

  // Resolve the callee once: a name names one callee of one kind.
  const Callee callee = registry_->Resolve(node.callee);
  if (std::holds_alternative<std::monostate>(callee)) {
    Fail(inv, dbase::NotFound(dbase::StrFormat(
                  "callee '%s' is neither a registered function, a platform "
                  "communication function, nor a composition",
                  node.callee.c_str())));
    return;
  }

  // Compute fan-outs are prepared instance by instance but handed to the
  // engines as one batch — a single queue crossing per each/key fan-out
  // instead of one per instance.
  if (const auto* spec = std::get_if<std::shared_ptr<const dfunc::FunctionSpec>>(&callee)) {
    std::vector<ComputeTask> batch;
    batch.reserve(launches.size());
    for (auto& launch : launches) {
      auto task = BuildComputeTask(inv, node_index, launch.instance, std::move(launch.inputs),
                                   *spec);
      if (!task.has_value()) {
        return;  // BuildComputeTask already failed the invocation.
      }
      batch.push_back(std::move(*task));
    }
    if (!workers_->SubmitComputeBatch(std::move(batch))) {
      Fail(inv, dbase::Unavailable("compute engines are shut down"));
    }
    return;
  }

  // A launch may fail the invocation synchronously, and a nested one may
  // even complete it.
  const auto* comm = std::get_if<std::shared_ptr<const CommFunctionSpec>>(&callee);
  for (auto& launch : launches) {
    if (comm != nullptr) {
      LaunchCommInstance(inv, node_index, launch.instance, std::move(launch.inputs), **comm);
    } else {
      LaunchNestedInstance(inv, node_index, launch.instance, std::move(launch.inputs),
                           std::get<std::shared_ptr<const ddsl::CompositionGraph>>(callee));
    }
    if (inv->done) {
      return;  // A synchronous failure aborted the invocation.
    }
  }
}

std::optional<ComputeTask> Dispatcher::BuildComputeTask(
    const std::shared_ptr<InvocationState>& inv, size_t node_index, size_t instance_index,
    dfunc::DataSetList inputs, std::shared_ptr<const dfunc::FunctionSpec> spec, int attempt) {
  ++compute_instances_;

  // Breaker admission gate on fresh launches only: a relaunch the policy
  // already granted must not be fast-failed mid-flight by a breaker that
  // tripped in the meantime — its own OnFailure will feed the breaker.
  if (attempt == 0 && config_.retry.enabled) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    const dpolicy::AdmitDecision admit = retry_policy_.Admit(spec->name, now);
    if (!admit.allow) {
      Fail(inv, dbase::Unavailable(dbase::StrFormat(
                    "circuit breaker open for function '%s' (%s)", spec->name.c_str(),
                    admit.reason)));
      return std::nullopt;
    }
  }

  // Retain the inputs while the instance is in flight so a sandbox-level
  // failure can be relaunched from scratch: payloads are refcounted
  // slices, so this copy is refcount bumps, not payload bytes.
  std::shared_ptr<const dfunc::DataSetList> retained;
  if (config_.retry.enabled) {
    retained = std::make_shared<const dfunc::DataSetList>(inputs);
  }

  ComputeTask task;
  // The declared memory is charged to the accountant while the task lives:
  // through the context a forked child needs, or directly for a thread
  // instance, which maps none.
  std::shared_ptr<const MemoryCharge> charge;
  if (config_.shared_contexts) {
    // A forked child sees its inputs only through the MAP_SHARED mapping
    // (§5: "ensures that the outputs from prior functions are copied as
    // inputs into the new function's context").
    auto context = MemoryContext::Create(spec->context_bytes, accountant_, /*shared=*/true);
    if (!context.ok()) {
      Fail(inv, context.status());
      return std::nullopt;
    }
    if (dbase::Status stored = (*context)->StoreInputSets(inputs); !stored.ok()) {
      Fail(inv, stored);
      return std::nullopt;
    }
    task.context = std::move(context).value();
  } else {
    // A thread instance runs in its engine's address space: the body reads
    // the inputs by reference and its outputs come back the same way, so
    // payloads cross as refcount bumps. The declared size still bounds the
    // marshalled inputs here and the outputs in the sandbox, so an
    // under-declared memory requirement fails identically on both backends.
    const uint64_t need = dfunc::MarshalledSize(inputs);
    if (need > MemoryContext::PayloadCapacity(spec->context_bytes)) {
      Fail(inv, dbase::ResourceExhausted(dbase::StrFormat(
                    "inputs (%zu bytes) exceed context capacity (%llu bytes); raise the "
                    "function's declared memory requirement",
                    static_cast<size_t>(need),
                    static_cast<unsigned long long>(spec->context_bytes))));
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
    charge = std::make_shared<const MemoryCharge>(accountant_, spec->context_bytes);
  }
  task.spec = *spec;
  task.control = inv->control;
  // The engine's one crossing: the outcome is handled on the reactor. The
  // charge ends when the engine drops the task.
  task.done = [this, scope = scope_, inv, node_index, instance_index, charge,
               spec = std::move(spec), retained, attempt](ExecOutcome outcome) mutable {
    scope->Post([this, inv = std::move(inv), node_index, instance_index, spec = std::move(spec),
                 retained = std::move(retained), attempt,
                 outcome = std::move(outcome)]() mutable {
      OnComputeOutcome(inv, node_index, instance_index, std::move(spec), std::move(retained),
                       attempt, std::move(outcome));
    });
  };
  return task;
}

void Dispatcher::OnComputeOutcome(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                                  size_t instance_index,
                                  std::shared_ptr<const dfunc::FunctionSpec> spec,
                                  std::shared_ptr<const dfunc::DataSetList> retained_inputs,
                                  int attempt, ExecOutcome outcome) {
  const std::shared_ptr<InvocationControl>& control = inv->control;
  dbase::Status status = outcome.status;
  if (status.ok() && config_.retry.enabled) {
    retry_policy_.OnSuccess(spec->name);
  }
  // The sandbox classified a stop it ended by the control's recorded
  // reason. An instance that finished just before its stop's kill fails
  // with that reason too: the stop hook may have left the end of the
  // invocation to this report.
  if (control->stop_requested() && status.ok()) {
    status = control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
  }

  if (status.ok()) {
    OnInstanceDone(inv, node_index, instance_index, std::move(outcome.outputs));
    return;
  }

  const dpolicy::FailureKind failure = outcome.failure;
  if (failure != dpolicy::FailureKind::kNone) {
    ++sandbox_failures_;
    control->NoteFailure(failure);
  }
  if (config_.retry.enabled && failure != dpolicy::FailureKind::kNone &&
      retained_inputs != nullptr) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    const bool alive = control->RetireStatus(now).ok();
    const bool interactive = control->priority() == PriorityClass::kInteractive;
    // The breaker must see every failure, even from an invocation that is
    // already dead — only the relaunch itself is gated on liveness.
    const dpolicy::RetryDecision decision =
        retry_policy_.OnFailure(spec->name, failure, interactive, attempt, now);
    if (decision.retry && alive) {
      control->CountRetry();
      RetryJob job;
      job.inv = inv;
      job.node_index = node_index;
      job.instance_index = instance_index;
      job.spec = std::move(spec);
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
  const auto pending = retry_jobs_.insert(retry_jobs_.end(), std::move(job));
  scope_->AddTimer(due_us - dbase::MonotonicClock::Get()->NowMicros(), [this, pending] {
    RetryJob due = std::move(*pending);
    retry_jobs_.erase(pending);
    RelaunchCompute(std::move(due));
  });
}

void Dispatcher::RelaunchCompute(RetryJob job) {
  const std::shared_ptr<InvocationState>& inv = job.inv;
  if (inv->done) {
    return;
  }
  if (const dbase::Status dead =
          inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
      !dead.ok()) {
    OnInstanceDone(inv, job.node_index, job.instance_index, dead);
    return;
  }
  // Always a fresh context: the failed child may have corrupted the old one
  // arbitrarily before it died.
  auto task = BuildComputeTask(inv, job.node_index, job.instance_index,
                               dfunc::DataSetList(*job.inputs), std::move(job.spec), job.attempt);
  if (!task.has_value()) {
    return;  // BuildComputeTask already failed the invocation.
  }
  std::vector<ComputeTask> batch;
  batch.push_back(std::move(*task));
  if (!workers_->SubmitComputeBatch(std::move(batch))) {
    Fail(inv, dbase::Unavailable("compute engines are shut down"));
  }
}

void Dispatcher::LaunchCommInstance(const std::shared_ptr<InvocationState>& inv,
                                    size_t node_index, size_t instance_index,
                                    dfunc::DataSetList inputs, const CommFunctionSpec& spec) {
  ++comm_instances_;

  // Communication functions take exactly one input set of requests;
  // validation at registration enforces the shape, this is the runtime
  // guard.
  if (inputs.size() != 1) {
    Fail(inv, dbase::InvalidArgument("communication function '" + spec.name +
                                     "' takes exactly one input set"));
    return;
  }

  // One sub-call per request item; the instance completes when all items
  // have responses. Responses keep item order.
  auto items = std::make_shared<std::vector<dfunc::DataItem>>(std::move(inputs[0].items));
  if (items->empty()) {
    // Optional empty request set: the instance runs vacuously and produces
    // an empty response set, resolved inline.
    NodeRuntime& rt = inv->nodes[node_index];
    rt.instance_outputs[instance_index].push_back(dfunc::DataSet{spec.response_set, {}});
    if (--rt.instances_pending == 0) {
      MergeNode(inv, node_index);
    }
    return;
  }
  // The instance's response set, filled on the reactor as the calls return.
  struct FanIn {
    dfunc::DataSet responses;
    size_t remaining;
  };
  auto fan_in = std::make_shared<FanIn>(FanIn{
      dfunc::DataSet{spec.response_set, std::vector<dfunc::DataItem>(items->size())},
      items->size()});
  for (size_t i = 0; i < items->size(); ++i) {
    CommTask task;
    // Each item is consumed exactly once; its payload moves as a slice
    // handle, never copying the request bytes.
    task.raw_request = std::move((*items)[i].data);
    task.handler = spec.handler;
    task.control = inv->control;
    // The comm worker serializes the response and posts it to the reactor.
    task.done = [this, scope = scope_, inv, node_index, instance_index, fan_in, i](
                    dhttp::HttpResponse response, dbase::Micros) {
      scope->Post([this, inv, node_index, instance_index, fan_in, i,
                   item = dfunc::DataItem{"", response.Serialize()}]() mutable {
        fan_in->responses.items[i] = std::move(item);
        if (--fan_in->remaining == 0) {
          dfunc::DataSetList outputs;
          outputs.push_back(std::move(fan_in->responses));
          OnInstanceDone(inv, node_index, instance_index, std::move(outputs));
        }
      });
    };
    if (!workers_->SubmitComm(std::move(task))) {
      Fail(inv, workers_->comm_workers() == 0
                    ? dbase::FailedPrecondition("no communication engine on one worker")
                    : dbase::Unavailable("communication engines are shut down"));
      return;
    }
  }
}

void Dispatcher::LaunchNestedInstance(const std::shared_ptr<InvocationState>& inv,
                                      size_t node_index, size_t instance_index,
                                      dfunc::DataSetList inputs,
                                      std::shared_ptr<const ddsl::CompositionGraph> subgraph) {
  if (inv->depth + 1 >= kMaxCompositionDepth) {
    Fail(inv, dbase::ResourceExhausted("composition nesting exceeds maximum depth"));
    return;
  }
  // Map instance input sets to sub-composition parameters by name; the DSL
  // binding's set name must equal the parameter name. The nested graph
  // shares this invocation's control block: cancelling or timing out the
  // root stops the whole tree.
  StartGraph(NewInvocation(std::move(subgraph), inv->depth + 1,
                           [this, inv, node_index, instance_index](
                               dbase::Result<dfunc::DataSetList> result) {
                             OnInstanceDone(inv, node_index, instance_index, std::move(result));
                           },
                           inv->control),
             std::move(inputs));
}

void Dispatcher::OnInstanceDone(const std::shared_ptr<InvocationState>& inv, size_t node_index,
                                size_t instance_index,
                                dbase::Result<dfunc::DataSetList> outputs) {
  if (inv->done) {
    return;  // Invocation already failed or completed; late stragglers drop.
  }
  NodeRuntime& rt = inv->nodes[node_index];
  if (!outputs.ok()) {
    Fail(inv, outputs.status());
    return;
  }
  rt.instance_outputs[instance_index] = std::move(outputs).value();
  if (--rt.instances_pending == 0) {
    MergeNode(inv, node_index);
  }
}

void Dispatcher::MergeNode(const std::shared_ptr<InvocationState>& inv, size_t node_index) {
  NodeRuntime& rt = inv->nodes[node_index];
  if (rt.merged || inv->done) {
    return;
  }
  rt.merged = true;

  const ddsl::GraphNode& node = inv->graph->nodes()[node_index];
  for (const auto& out : node.outputs) {
    dfunc::DataSet merged;
    merged.name = out.value;
    for (auto& instance : rt.instance_outputs) {
      dfunc::DataSet* set = dfunc::FindSet(instance, out.set_name);
      if (set != nullptr) {
        // Instance outputs are cleared right after the merge; move the
        // items instead of copying.
        merged.items.insert(merged.items.end(), std::make_move_iterator(set->items.begin()),
                            std::make_move_iterator(set->items.end()));
      }
    }
    DeliverValue(inv, out.value, std::move(merged));
    if (inv->done) {
      return;
    }
  }
  rt.instance_outputs.clear();  // Release intermediate copies eagerly.
  MaybeComplete(inv);
}

void Dispatcher::DeliverValue(const std::shared_ptr<InvocationState>& inv,
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
      StartNode(inv, n);
      if (inv->done) {
        return;
      }
    }
  }
}

void Dispatcher::Fail(const std::shared_ptr<InvocationState>& inv, dbase::Status status) {
  if (inv->done) {
    return;
  }
  inv->done = true;
  switch (status.code()) {
    case dbase::StatusCode::kCancelled:
      ++invocations_cancelled_;
      break;
    case dbase::StatusCode::kDeadlineExceeded: {
      // Only the invocation-level deadline feeds the deadline counter. A
      // per-function spec timeout also surfaces as kDeadlineExceeded, but
      // that is a workload failure, not a client-deadline kill — the
      // monitoring signal must not conflate the two.
      const bool invocation_deadline =
          inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros()).code() ==
          dbase::StatusCode::kDeadlineExceeded;
      ++(invocation_deadline ? invocations_deadline_exceeded_ : invocations_failed_);
      break;
    }
    default:
      ++invocations_failed_;
  }
  Finish(inv, std::move(status));
}

void Dispatcher::MaybeComplete(const std::shared_ptr<InvocationState>& inv) {
  if (inv->done) {
    return;
  }
  // Complete when every declared result value is available. (Some nodes may
  // still be pending if their outputs feed nothing; they are not waited
  // for.)
  for (const auto& result : inv->graph->results()) {
    if (inv->values.count(result) == 0) {
      return;
    }
  }
  // A cancel (or a deadline) that landed before the last merge wins over
  // the completed results: the caller was promised a terminal kCancelled /
  // kDeadlineExceeded once the handle said so.
  if (const dbase::Status dead =
          inv->control->RetireStatus(dbase::MonotonicClock::Get()->NowMicros());
      !dead.ok()) {
    Fail(inv, dead);
    return;
  }
  inv->done = true;
  ++invocations_completed_;

  dfunc::DataSetList results;
  results.reserve(inv->graph->results().size());
  for (const auto& result : inv->graph->results()) {
    // The invocation is complete: values are never read again, so the
    // result sets move out instead of copying.
    dfunc::DataSet set = std::move(inv->values.at(result));
    set.name = result;
    results.push_back(std::move(set));
  }
  Finish(inv, std::move(results));
}

void Dispatcher::Finish(const std::shared_ptr<InvocationState>& inv,
                        dbase::Result<dfunc::DataSetList> result) {
  if (inv->deadline_timer != 0) {
    scope_->CancelTimer(std::exchange(inv->deadline_timer, 0));
  }
  ResultCallback callback = std::move(inv->callback);
  callback(std::move(result));
}

}  // namespace dandelion
