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

  workers_ = std::make_unique<WorkerSet>(worker_config, &mesh_);
  workers_->set_sleep_for_modeled_latency(config.sleep_for_modeled_latency);

  Dispatcher::Config dispatcher_config;
  dispatcher_config.shared_contexts = config.backend == IsolationBackend::kProcess;
  dispatcher_config.retry = config.retry;
  dispatcher_ = std::make_unique<Dispatcher>(&functions_, &compositions_, &comm_functions_,
                                             workers_.get(), &accountant_, dispatcher_config);

  if (config.enable_control_plane) {
    ControlPlane::Config control_config;
    control_config.interval_us = config.control_interval_us;
    control_plane_ = std::make_unique<ControlPlane>(
        workers_.get(),
        config.elasticity_policy_factory ? config.elasticity_policy_factory() : nullptr,
        control_config);
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
