// The Platform facade: one Dandelion worker node (Figure 4). Owns the
// function/DAG registries, the service mesh, the engine worker set, the
// dispatcher, and the control plane. This is the public API examples and
// benchmarks program against.
#ifndef SRC_RUNTIME_PLATFORM_H_
#define SRC_RUNTIME_PLATFORM_H_

#include <memory>
#include <string>
#include <string_view>

#include <functional>

#include "src/base/status.h"
#include "src/dsl/graph.h"
#include "src/func/data.h"
#include "src/func/registry.h"
#include "src/http/service_mesh.h"
#include "src/policy/elasticity.h"
#include "src/runtime/controller.h"
#include "src/runtime/dispatcher.h"
#include "src/runtime/engine.h"
#include "src/runtime/invocation.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"

namespace dandelion {

struct PlatformConfig {
  // Engine workers ≈ CPU cores of the node.
  int num_workers = 4;
  int initial_comm_workers = 1;
  IsolationBackend backend = IsolationBackend::kThread;
  // Enable the elasticity control plane that re-balances cores (§5). Off by
  // default so unit tests are deterministic; benchmarks switch it on.
  bool enable_control_plane = false;
  dbase::Micros control_interval_us = 30 * dbase::kMicrosPerMilli;
  // Builds the elasticity policy the control plane executes (src/policy/);
  // null runs paper-pi.
  std::function<std::unique_ptr<dpolicy::ElasticityPolicy>()> elasticity_policy_factory;
  // Hold comm replies for their modelled network latency on a reactor
  // timer (disable for fast unit tests). Nothing sleeps, despite the name.
  bool sleep_for_modeled_latency = true;
  int comm_parallelism = 64;
  // Unread: every sandbox starts cold, there is no warm pool to enable.
  // Kept only because bench/e2e sets it.
  bool enable_sandbox_pool = false;
  // Retry/circuit-breaker policy for sandbox-level failures, executed by the
  // dispatcher (src/policy/retry.h). Enabled by default: Dandelion functions
  // are pure, so relaunching a crashed instance is always side-effect-safe.
  dpolicy::RetryOptions retry;
};

class Platform {
 public:
  explicit Platform(PlatformConfig config = PlatformConfig{});
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // --- Registration --------------------------------------------------------
  dbase::Status RegisterFunction(dfunc::FunctionSpec spec);
  // Registers an additional platform communication function (trusted code;
  // "HTTP" is pre-registered). The name becomes reserved in compositions.
  dbase::Status RegisterCommFunction(CommFunctionSpec spec);
  // Parses DSL text (possibly several compositions) and registers each.
  dbase::Status RegisterCompositionDsl(std::string_view dsl_source);
  dbase::Status RegisterComposition(ddsl::CompositionGraph graph);

  // --- Invocation ----------------------------------------------------------
  // Primary API: a first-class InvocationRequest (deadline, priority class,
  // id) observed through the returned InvocationHandle (Cancel, completion
  // state, InvocationReport). The callback fires exactly once, on the
  // process reactor (Dispatcher::Submit).
  InvocationHandle Submit(InvocationRequest request, Dispatcher::ResultCallback callback);
  // Blocking counterpart; deadline-aware (returns kDeadlineExceeded instead
  // of waiting forever). Off the reactor only: on it, kFailedPrecondition.
  dbase::Result<dfunc::DataSetList> Invoke(InvocationRequest request);

  // --- Introspection -------------------------------------------------------
  dhttp::ServiceMesh& mesh() { return mesh_; }
  MemoryAccountant& accountant() { return accountant_; }
  const dfunc::FunctionRegistry& functions() const { return functions_; }
  const CompositionRegistry& compositions() const { return compositions_; }
  const CommFunctionRegistry& comm_functions() const { return comm_functions_; }
  EngineStats engine_stats() const { return workers_->Stats(); }
  DispatcherStats dispatcher_stats() const { return dispatcher_->Stats(); }
  // Per-function circuit-breaker states (statz's `breaker` section).
  std::vector<dpolicy::BreakerSnapshot> breaker_snapshots() const {
    return dispatcher_->Breakers();
  }
  // The engine pool itself — manual role shifts (operators, tests) go
  // through the same WorkerSet hooks the control plane uses.
  WorkerSet& workers() { return *workers_; }
  const WorkerSet& workers() const { return *workers_; }
  ControlPlane* control_plane() { return control_plane_.get(); }
  const PlatformConfig& config() const { return config_; }

  // Graceful shutdown: drains queues and joins engines. Idempotent; the
  // destructor calls it too.
  void Shutdown();

 private:
  // Validates communication-function node shapes at registration time
  // (§6.3): exactly one input set with the function's declared request-set
  // name, exactly one output set with its response-set name.
  dbase::Status ValidateCommNodes(const ddsl::CompositionGraph& graph) const;

  PlatformConfig config_;
  dfunc::FunctionRegistry functions_;
  CompositionRegistry compositions_;
  CommFunctionRegistry comm_functions_;
  dhttp::ServiceMesh mesh_;
  MemoryAccountant accountant_;
  std::unique_ptr<WorkerSet> workers_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<ControlPlane> control_plane_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_PLATFORM_H_
