#include "src/runtime/platform.h"

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/dsl/parser.h"
#include "src/runtime/comm_function.h"

namespace dandelion {

Platform::Platform(PlatformConfig config) : config_(config) {
  WorkerSet::Config worker_config;
  worker_config.num_workers = config.num_workers;
  worker_config.initial_comm_workers = config.initial_comm_workers;
  worker_config.backend = config.backend;
  worker_config.comm_parallelism = config.comm_parallelism;
  if (config.enable_sandbox_pool) {
    SandboxPool::Config pool_config = config.sandbox_pool;
    pool_config.backend = config.backend;  // The pool must match the engines.
    sandbox_pool_ = std::make_unique<SandboxPool>(std::move(pool_config), &accountant_);
  }

  workers_ = std::make_unique<WorkerSet>(worker_config, &mesh_);
  workers_->set_sleep_for_modeled_latency(config.sleep_for_modeled_latency);
  if (sandbox_pool_ != nullptr) {
    workers_->set_sandbox_pool(sandbox_pool_.get());
  }

  Dispatcher::Config dispatcher_config;
  dispatcher_config.shared_contexts = config.backend == IsolationBackend::kProcess;
  dispatcher_config.sandbox_pool = sandbox_pool_.get();
  dispatcher_config.retry = config.retry;
  dispatcher_ = std::make_unique<Dispatcher>(&functions_, &compositions_, &comm_functions_,
                                             workers_.get(), &accountant_, dispatcher_config);

  if (config.enable_control_plane) {
    ControlPlane::Config control_config;
    control_config.interval_us = config.control_interval_us;
    std::unique_ptr<dpolicy::ElasticityPolicy> policy =
        config.elasticity_policy_factory ? config.elasticity_policy_factory()
                                         : dpolicy::CreatePolicy(config.elasticity_policy);
    control_plane_ = std::make_unique<ControlPlane>(workers_.get(), std::move(policy),
                                                    control_config);
    // Signals the WorkerSet cannot see: dispatcher gauges and the
    // memory-context recycler's occupancy. Frontend admission counters are
    // added by HttpFrontend when one is attached.
    control_plane_->AddSignalSource([this](dpolicy::ElasticitySignals* signals) {
      const DispatcherStats stats = dispatcher_->Stats();
      signals->inflight_interactive = stats.inflight_interactive;
      signals->inflight_batch = stats.inflight_batch;
      signals->deadline_exceeded += stats.invocations_deadline_exceeded;
      signals->sandbox_failures = stats.sandbox_failures;
      signals->retries_attempted = stats.retries_attempted;
      signals->breaker_fast_fails = stats.breaker_fast_fails;
      signals->breakers_open = stats.breakers_open;
      ContextPool* pool = ContextPool::Get();
      const size_t cap = pool->max_entries();
      signals->context_pool_occupancy =
          cap == 0 ? 0.0
                   : static_cast<double>(pool->entries()) / static_cast<double>(cap);
      if (sandbox_pool_ != nullptr) {
        const SandboxPoolStats warm = sandbox_pool_->Stats();
        signals->warm_pool_shelved = static_cast<uint64_t>(warm.shelved);
        signals->warm_pool_occupancy =
            warm.max_total == 0
                ? 0.0
                : static_cast<double>(warm.shelved) / static_cast<double>(warm.max_total);
        signals->warm_pool_misses = warm.misses;
      }
    });
    if (sandbox_pool_ != nullptr) {
      // The prewarm policy shares the elasticity cadence: every control
      // tick also advances the pool's per-function EWMA targets, on the
      // pool's fill thread, since a fill may block the reactor-run tick.
      control_plane_->AddTicker(
          [this](dbase::Micros now_us) { sandbox_pool_->RequestTick(now_us); });
    }
    control_plane_->Start();
  }
}

Platform::~Platform() { Shutdown(); }

void Platform::Shutdown() {
  if (control_plane_ != nullptr) {
    control_plane_->Stop();
  }
  if (workers_ != nullptr) {
    workers_->Shutdown();
  }
  if (sandbox_pool_ != nullptr) {
    // After the engines: in-flight tasks release their leases first.
    sandbox_pool_->Shutdown();
  }
}

dbase::Status Platform::RegisterFunction(dfunc::FunctionSpec spec) {
  if (comm_functions_.Contains(spec.name)) {
    return dbase::InvalidArgument("'" + spec.name +
                                  "' names a platform communication function and cannot be a "
                                  "compute function");
  }
  return functions_.Register(std::move(spec));
}

dbase::Status Platform::RegisterCommFunction(CommFunctionSpec spec) {
  if (functions_.Contains(spec.name)) {
    return dbase::InvalidArgument("'" + spec.name + "' is already a compute function");
  }
  return comm_functions_.Register(std::move(spec));
}

dbase::Status Platform::ValidateCommNodes(const ddsl::CompositionGraph& graph) const {
  for (const auto& node : graph.nodes()) {
    auto comm = comm_functions_.Lookup(node.callee);
    if (!comm.ok()) {
      continue;
    }
    if (node.inputs.size() != 1 || node.inputs[0].set_name != comm->request_set) {
      return dbase::InvalidArgument(dbase::StrFormat(
          "composition '%s': %s nodes take exactly one input set named '%s'",
          graph.name().c_str(), node.callee.c_str(), comm->request_set.c_str()));
    }
    if (node.outputs.size() != 1 || node.outputs[0].set_name != comm->response_set) {
      return dbase::InvalidArgument(dbase::StrFormat(
          "composition '%s': %s nodes produce exactly one output set named '%s'",
          graph.name().c_str(), node.callee.c_str(), comm->response_set.c_str()));
    }
  }
  return dbase::OkStatus();
}

dbase::Status Platform::RegisterComposition(ddsl::CompositionGraph graph) {
  RETURN_IF_ERROR(ValidateCommNodes(graph));
  return compositions_.Register(std::move(graph));
}

dbase::Status Platform::RegisterCompositionDsl(std::string_view dsl_source) {
  ASSIGN_OR_RETURN(auto asts, ddsl::ParseCompositions(dsl_source));
  for (const auto& ast : asts) {
    ASSIGN_OR_RETURN(auto graph, ddsl::CompositionGraph::FromAst(ast));
    RETURN_IF_ERROR(RegisterComposition(std::move(graph)));
  }
  return dbase::OkStatus();
}

InvocationHandle Platform::Submit(InvocationRequest request,
                                  Dispatcher::ResultCallback callback) {
  return dispatcher_->Submit(std::move(request), std::move(callback));
}

dbase::Result<dfunc::DataSetList> Platform::Invoke(InvocationRequest request) {
  return dispatcher_->Invoke(std::move(request));
}

}  // namespace dandelion
