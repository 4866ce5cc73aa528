#include "src/runtime/node_agent.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/http/sanitizer.h"

namespace dandelion {

namespace {
// How many recently-served composition names travel in gossip (the
// locality signal); oldest drop first.
constexpr size_t kMaxResidentGossip = 64;
}  // namespace

NodeAgent::NodeAgent(Platform* platform, NodeAgentConfig config)
    : platform_(platform),
      config_(std::move(config)),
      server_([this] {
        dnet::NodeServer::Config server_config;
        server_config.port = config_.port;
        server_config.listen_fd = config_.listen_fd;
        server_config.node_name = config_.node_name;
        server_config.limits = config_.limits;
        return server_config;
      }()) {
  server_.set_invoke_handler([this](dnet::WireInvoke invoke, dnet::NodeServer::OutcomeFn done) {
    HandleInvoke(std::move(invoke), std::move(done));
  });
  server_.set_cancel_handler([this](uint64_t invocation_id) { HandleCancel(invocation_id); });
  server_.set_status_provider([this] { return BuildStatus(); });
  server_.set_mesh_handler([this](std::string request, dnet::NodeServer::MeshReplyFn done) {
    HandleMesh(std::move(request), std::move(done));
  });
}

NodeAgent::~NodeAgent() { Stop(); }

dbase::Status NodeAgent::Start() {
  if (running_.exchange(true, std::memory_order_relaxed)) {
    return dbase::FailedPrecondition("NodeAgent already started");
  }
  return server_.Start();
}

void NodeAgent::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  // Once the server has stopped no handler runs again: no new invokes,
  // cancels or mesh calls past this point.
  server_.Stop();
  // Cancel whatever a (possibly dead) router still owes us an answer for,
  // then wait for every accepted completion to fire: those callbacks touch
  // this object, so returning with one pending would hand a dangling agent
  // to an engine thread.
  std::vector<InvocationHandle> handles;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    handles.reserve(inflight_handles_.size());
    for (const auto& [id, handle] : inflight_handles_) {
      handles.push_back(handle);
    }
  }
  for (auto& handle : handles) {
    handle.Cancel();
  }
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock,
                   [this] { return outstanding_.load(std::memory_order_acquire) == 0; });
  }
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_handles_.clear();
}

void NodeAgent::NoteServed(const std::string& composition) {
  std::lock_guard<std::mutex> lock(resident_mu_);
  auto it = std::find(resident_.begin(), resident_.end(), composition);
  if (it != resident_.end()) {
    resident_.erase(it);
  }
  resident_.push_back(composition);
  while (resident_.size() > kMaxResidentGossip) {
    resident_.pop_front();
  }
}

void NodeAgent::HandleInvoke(dnet::WireInvoke invoke, dnet::NodeServer::OutcomeFn done) {
  const PriorityClass priority =
      invoke.priority == static_cast<uint8_t>(PriorityClass::kBatch) ? PriorityClass::kBatch
                                                                     : PriorityClass::kInteractive;
  // Admission: shed at the per-class cap with the re-routable marker, the
  // wire analogue of the frontend's 429.
  const size_t cap = priority == PriorityClass::kBatch ? config_.max_inflight_batch
                                                       : config_.max_inflight_interactive;
  const int klass = static_cast<int>(priority);
  if (cap != 0) {
    const int64_t now_inflight = inflight_[klass].fetch_add(1, std::memory_order_relaxed);
    if (static_cast<size_t>(now_inflight) >= cap) {
      inflight_[klass].fetch_sub(1, std::memory_order_relaxed);
      shed_.fetch_add(1, std::memory_order_relaxed);
      dnet::WireOutcome outcome;
      outcome.code = dbase::StatusCode::kUnavailable;
      outcome.message = "node at capacity";
      outcome.shed = true;
      done(std::move(outcome));
      return;
    }
  } else {
    inflight_[klass].fetch_add(1, std::memory_order_relaxed);
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);

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
  NoteServed(request.composition);

  const uint64_t invocation_id = request.id;
  if (invocation_id != 0) {
    // Registered before the submit: a completion that fires inside Submit
    // already finds (and erases) the entry.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_handles_[invocation_id] = InvocationHandle();
  }
  auto callback = [this, done = std::move(done), invocation_id,
                   klass](dbase::Result<dfunc::DataSetList> result) {
    inflight_[klass].fetch_sub(1, std::memory_order_relaxed);
    served_.fetch_add(1, std::memory_order_relaxed);
    // The handle carries the report (failure kind, absorbed retries). It
    // is empty when the completion outran Submit's return; the submit
    // side then finds no entry to fill.
    InvocationHandle self;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_handles_.find(invocation_id);
      if (it != inflight_handles_.end()) {
        self = it->second;
        inflight_handles_.erase(it);
      }
    }
    dnet::WireOutcome outcome;
    const InvocationReport report = self.Report();
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
    {
      // Notify under the lock: Stop() may destroy this agent the moment
      // it sees zero, condition variable included.
      std::lock_guard<std::mutex> drain_lock(drain_mu_);
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      drain_cv_.notify_all();
    }
  };
  InvocationHandle submitted = platform_->Submit(std::move(request), std::move(callback));
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_handles_.find(invocation_id);
  if (it != inflight_handles_.end()) {
    it->second = std::move(submitted);
  }
}

void NodeAgent::HandleCancel(uint64_t invocation_id) {
  InvocationHandle handle;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_handles_.find(invocation_id);
    if (it == inflight_handles_.end()) {
      return;
    }
    handle = it->second;
  }
  handle.Cancel();
}

void NodeAgent::HandleMesh(std::string request, dnet::NodeServer::MeshReplyFn done) {
  dnet::WireMeshReply reply;
  auto sanitized = dhttp::SanitizeRequest(request);
  if (!sanitized.ok()) {
    reply.response = dhttp::HttpResponse::BadRequest(sanitized.status().ToString()).Serialize();
  } else {
    // Local endpoints only: a host this node reaches remotely itself would
    // send the call on another hop, and two nodes that each register a
    // host as remote on the other would bounce it back and forth.
    dhttp::MeshCallResult result = platform_->mesh().Call(*sanitized, config_.node_name);
    reply.latency_us = result.latency_us;
    reply.response = result.response.Serialize();
  }
  done(std::move(reply));
}

dnet::WireNodeStatus NodeAgent::BuildStatus() {
  dnet::WireNodeStatus status;
  status.node_name = config_.node_name;
  const EngineStats engines = platform_->engine_stats();
  const DispatcherStats dispatch = platform_->dispatcher_stats();
  dpolicy::ElasticitySignals& s = status.signals;
  s.now_us = dbase::MonotonicClock::Get()->NowMicros();
  s.compute_workers = engines.compute_workers;
  s.comm_workers = engines.comm_workers;
  s.compute_backlog = engines.compute_queue_len;
  s.comm_backlog = engines.comm_queue_len;
  s.interactive_compute_backlog = engines.compute_urgent_queue_len;
  s.interactive_comm_backlog = engines.comm_urgent_queue_len;
  s.inflight_interactive = dispatch.inflight_interactive;
  s.inflight_batch = dispatch.inflight_batch;
  s.admission_shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = dispatch.invocations_deadline_exceeded;
  s.sandbox_failures = dispatch.sandbox_failures;
  s.breaker_fast_fails = dispatch.breaker_fast_fails;
  s.breakers_open = dispatch.breakers_open;
  if (SandboxPool* pool = platform_->sandbox_pool(); pool != nullptr) {
    const SandboxPoolStats warm = pool->Stats();
    s.warm_pool_shelved = static_cast<uint64_t>(warm.shelved);
    s.warm_pool_misses = warm.misses;
  }
  status.inflight = dispatch.inflight_interactive + dispatch.inflight_batch;
  status.admission_cap = config_.max_inflight_interactive + config_.max_inflight_batch;
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    status.resident_compositions.assign(resident_.begin(), resident_.end());
  }
  return status;
}

}  // namespace dandelion
