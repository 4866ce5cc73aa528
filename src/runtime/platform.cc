#include "src/runtime/platform.h"

#include <utility>
#include <vector>

#include "src/dsl/parser.h"

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
  dispatcher_ = std::make_unique<Dispatcher>(&registry_, workers_.get(), &accountant_,
                                             dispatcher_config);

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
  return registry_.Add(std::move(spec));
}

dbase::Status Platform::RegisterCommFunction(CommFunctionSpec spec) {
  return registry_.Add(std::move(spec));
}

dbase::Status Platform::RegisterComposition(ddsl::CompositionGraph graph) {
  std::vector<ddsl::CompositionGraph> graphs;
  graphs.push_back(std::move(graph));
  return registry_.Add(std::move(graphs));
}

dbase::Status Platform::RegisterCompositionDsl(std::string_view dsl_source) {
  ASSIGN_OR_RETURN(auto asts, ddsl::ParseCompositions(dsl_source));
  std::vector<ddsl::CompositionGraph> graphs;
  graphs.reserve(asts.size());
  for (const auto& ast : asts) {
    ASSIGN_OR_RETURN(auto graph, ddsl::CompositionGraph::FromAst(ast));
    graphs.push_back(std::move(graph));
  }
  return registry_.Add(std::move(graphs));
}

InvocationHandle Platform::Submit(InvocationRequest request,
                                  Dispatcher::ResultCallback callback) {
  return dispatcher_->Submit(std::move(request), std::move(callback));
}

dbase::Result<dfunc::DataSetList> Platform::Invoke(InvocationRequest request) {
  return dispatcher_->Invoke(std::move(request));
}

}  // namespace dandelion
