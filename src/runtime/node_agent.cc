#include "src/runtime/node_agent.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace dandelion {

NodeAgent::NodeAgent(Platform* platform, NodeAgentConfig config)
    : platform_(platform),
      config_(std::move(config)),
      ingress_(config_.max_inflight_interactive, config_.max_inflight_batch),
      server_([this] {
        dnet::NodeServer::Config server_config;
        server_config.port = config_.port;
        server_config.listen_fd = config_.listen_fd;
        server_config.node_name = config_.node_name;
        server_config.limits = config_.limits;
        return server_config;
      }()) {
  server_.set_invoke_handler([this](dnet::WireInvoke invoke, dnet::NodeServer::OutcomeFn done) {
    return HandleInvoke(std::move(invoke), std::move(done));
  });
  server_.set_status_provider([this] { return BuildStatus(); });
}

NodeAgent::~NodeAgent() { Stop(); }

dbase::Status NodeAgent::Start() { return server_.Start(); }

void NodeAgent::Stop() { server_.Stop(); }

dnet::NodeServer::CancelFn NodeAgent::HandleInvoke(dnet::WireInvoke invoke,
                                                   dnet::NodeServer::OutcomeFn done) {
  const PriorityClass priority =
      invoke.priority == static_cast<uint8_t>(PriorityClass::kBatch) ? PriorityClass::kBatch
                                                                     : PriorityClass::kInteractive;
  // The submitted invocation, for the completion's report (failure kind,
  // absorbed retries); still empty when the completion runs inside Submit.
  auto submitted = std::make_shared<InvocationHandle>();
  Dispatcher::ResultCallback completion = ingress_.Admit(
      priority, [done, submitted](dbase::Result<dfunc::DataSetList> result) {
        const InvocationReport report = submitted->Report();
        dnet::WireOutcome outcome;
        outcome.failure_kind = static_cast<uint8_t>(report.failure_kind);
        outcome.retries_attempted = static_cast<uint32_t>(report.retries_attempted);
        if (result.ok()) {
          outcome.code = dbase::StatusCode::kOk;
          outcome.sets = std::move(result).value();
        } else {
          outcome.code = result.status().code();
          outcome.message = result.status().message();
        }
        done(std::move(outcome));
      });
  if (completion == nullptr) {
    // Shed with the re-routable marker, the wire analogue of the
    // frontend's 429.
    dnet::WireOutcome outcome;
    outcome.code = dbase::StatusCode::kUnavailable;
    outcome.message = "node at capacity";
    outcome.shed = true;
    done(std::move(outcome));
    return nullptr;
  }

  InvocationRequest request;
  request.composition = std::move(invoke.composition);
  request.args = std::move(invoke.args);
  request.priority = priority;
  request.id = invoke.invocation_id;
  if (invoke.remaining_deadline_us > 0) {
    // The wire carries time *remaining*; absolute monotonic stamps do not
    // transfer between processes.
    request.deadline_us = InvocationRequest::DeadlineIn(
        std::min(invoke.remaining_deadline_us, InvocationRequest::kMaxDeadlineInUs));
  }
  *submitted = platform_->Submit(std::move(request), std::move(completion));
  return [handle = *submitted] { handle.Cancel(); };
}

Ingress::Stats NodeAgent::ingress_stats() const {
  Ingress::Stats stats;
  scope_.Run([&] { stats = ingress_.stats(); });
  return stats;
}

dnet::WireNodeStatus NodeAgent::BuildStatus() {
  dnet::WireNodeStatus status;
  status.node_name = config_.node_name;
  const EngineStats engines = platform_->engine_stats();
  const DispatcherStats dispatch = platform_->dispatcher_stats();
  status.inflight = dispatch.inflight_interactive + dispatch.inflight_batch;
  // 0 (uncapped) when either class is: a node that never sheds interactive
  // work has no finite headroom to advertise.
  status.admission_cap =
      config_.max_inflight_interactive == 0 || config_.max_inflight_batch == 0
          ? 0
          : config_.max_inflight_interactive + config_.max_inflight_batch;
  status.backlog = engines.compute_queue_len + engines.comm_queue_len;
  return status;
}

}  // namespace dandelion
