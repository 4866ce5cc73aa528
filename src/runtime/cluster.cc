#include "src/runtime/cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/http/http_parser.h"
#include "src/runtime/node_agent.h"

namespace dandelion {

namespace {
// Backstop timeout for routed invokes carrying no deadline.
constexpr dbase::Micros kInvokeTimeoutUs = 120 * dbase::kMicrosPerSecond;
// Grace added to the router-side timeout when the request carries a
// deadline, so the serving node's own deadline machinery (which produces
// the richer report) wins the race against the client timer.
constexpr dbase::Micros kDeadlineGraceUs = 100 * dbase::kMicrosPerMilli;
// Per-peer gossip timeout cap: one slow peer must not stall the round.
constexpr dbase::Micros kGossipTimeoutCapUs = 500 * dbase::kMicrosPerMilli;
}  // namespace

// An in-process engine: a Platform served by its own NodeAgent on an
// ephemeral loopback port, which the router reaches like any spawned node.
struct Cluster::LocalNode {
  LocalNode(const PlatformConfig& config, const std::string& name)
      : platform(config), agent(&platform, NodeAgentConfig{.node_name = name}) {}

  Platform platform;
  NodeAgent agent;
};

// One routed invocation, shared by its wire attempts and its handle's
// cancel hook.
struct Cluster::Routed {
  InvocationRequest request;
  RoutedCallback callback;
  std::shared_ptr<InvocationControl> control;

  std::mutex mu;
  // The attempt on the wire now: where Cancel() sends kCancel.
  std::string peer;         // Guarded by mu.
  uint64_t request_id = 0;  // Guarded by mu; 0 = none sent yet.

  void Finish(dbase::Result<dfunc::DataSetList> result, int node, int attempts) {
    control->MarkDone(result.status(), dbase::MonotonicClock::Get()->NowMicros());
    callback(std::move(result), node, attempts);
  }
};

Cluster::Cluster(Config config)
    : config_(std::move(config)),
      client_(std::make_shared<dnet::NodeClient>(config_.router_name)),
      membership_(config_.membership) {
  // A client that cannot start fails every invoke with kFailedPrecondition.
  (void)client_->Start();
  // With remote nodes configured a router-only cluster (0 in-process
  // nodes) is legitimate; a fully empty cluster is not.
  const int locals = config_.remote_nodes.empty() ? std::max(1, config_.num_nodes)
                                                  : std::max(0, config_.num_nodes);
  for (int n = 0; n < locals; ++n) {
    const std::string name = "local-" + std::to_string(n);
    auto local = std::make_unique<LocalNode>(config_.node_config, name);
    // Every in-process node's mesh can carry remote-registered hosts over
    // the node wire — the same socket path invokes ride.
    local->platform.mesh().SetRemoteTransport(
        [client = client_.get()](const std::string& peer, const dhttp::SanitizedRequest& request)
            -> dbase::Result<dhttp::MeshCallResult> {
          ASSIGN_OR_RETURN(
              dnet::WireMeshReply reply,
              client->MeshCall(peer, request.request.Serialize(), 2 * dbase::kMicrosPerSecond));
          ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(reply.response));
          dhttp::MeshCallResult result;
          result.response = std::move(response);
          result.latency_us = reply.latency_us;
          return result;
        });
    const dbase::Status started = local->agent.Start();
    if (!started.ok()) {
      DLOG(Warning) << name << " cannot serve the node wire: " << started.ToString();
    }
    (void)AddNode(name, local->agent.port(), /*remote=*/false);
    locals_.push_back(std::move(local));
  }
  for (const RemoteNode& remote : config_.remote_nodes) {
    (void)AddRemoteNode(remote.name, remote.port);
  }
  if (config_.gossip_interval_us > 0) {
    gossip_tick_ = std::make_unique<dbase::EventLoop::Scope>(dbase::EventLoop::Process());
    ArmGossipTick();
  }
}

void Cluster::ArmGossipTick() {
  gossip_tick_->AddTimer(config_.gossip_interval_us, [this] {
    // A tick while the previous round is still open skips.
    StartGossipRound(nullptr);
    ArmGossipTick();
  });
}

Cluster::~Cluster() { Shutdown(); }

Platform& Cluster::node(int index) { return locals_[static_cast<size_t>(index)]->platform; }

dbase::Status Cluster::AddRemoteNode(const std::string& name, uint16_t port) {
  return AddNode(name, port, /*remote=*/true);
}

dbase::Status Cluster::AddNode(const std::string& name, uint16_t port, bool remote) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  for (auto& slot : slots_) {
    if (slot->name != name) {
      continue;
    }
    std::lock_guard<std::mutex> slot_lock(slot->mu);
    if (slot->state != dpolicy::MemberState::kLeft) {
      return dbase::AlreadyExists("node already joined: " + name);
    }
    // Administrative rejoin of an evicted/removed node (possibly on a new
    // port after a restart).
    slot->state = dpolicy::MemberState::kActive;
    slot->last_gossip_us = 0;
    client_->RemovePeer(name);
    client_->AddPeer(name, port);
    return dbase::OkStatus();
  }
  client_->AddPeer(name, port);
  auto slot = std::make_unique<NodeSlot>();
  slot->name = name;
  slot->remote = remote;
  slots_.push_back(std::move(slot));
  return dbase::OkStatus();
}

void Cluster::RemoveRemoteNode(const std::string& name) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  for (auto& slot : slots_) {
    if (slot->name != name) {
      continue;
    }
    {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      slot->state = dpolicy::MemberState::kLeft;
    }
    // Administrative leave really disconnects (unlike staleness eviction,
    // which keeps probing so the node can rejoin when it recovers).
    client_->RemovePeer(name);
    return;
  }
}

int Cluster::total_nodes() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  return static_cast<int>(slots_.size());
}

Cluster::NodeSlot* Cluster::slot_at(int index) const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  if (index < 0 || index >= static_cast<int>(slots_.size())) {
    return nullptr;
  }
  return slots_[static_cast<size_t>(index)].get();
}

dbase::Status Cluster::RegisterFunction(const dfunc::FunctionSpec& spec) {
  for (auto& local : locals_) {
    RETURN_IF_ERROR(local->platform.RegisterFunction(spec));
  }
  return dbase::OkStatus();
}

dbase::Status Cluster::RegisterCompositionDsl(std::string_view dsl_source) {
  for (auto& local : locals_) {
    RETURN_IF_ERROR(local->platform.RegisterCompositionDsl(dsl_source));
  }
  return dbase::OkStatus();
}

void Cluster::ForEachNode(const std::function<void(Platform&)>& setup) {
  for (auto& local : locals_) {
    setup(local->platform);
  }
}

void Cluster::NoteAffinity(const std::string& composition, int index) {
  std::lock_guard<std::mutex> lock(affinity_mu_);
  affinity_[composition] = index;
}

int Cluster::AffinityFor(const std::string& composition) const {
  std::lock_guard<std::mutex> lock(affinity_mu_);
  auto it = affinity_.find(composition);
  return it == affinity_.end() ? -1 : it->second;
}

bool Cluster::Eligible(int index, const std::set<int>& exclude, bool allow_suspect) const {
  if (exclude.count(index) > 0) {
    return false;
  }
  NodeSlot* slot = slot_at(index);
  if (slot == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  switch (slot->state) {
    case dpolicy::MemberState::kActive:
      return true;
    case dpolicy::MemberState::kSuspect:
      return allow_suspect;
    case dpolicy::MemberState::kLeft:
      return false;
  }
  return false;
}

double Cluster::NodeLoad(int index) const {
  NodeSlot* slot = slot_at(index);
  if (slot == nullptr) {
    return std::numeric_limits<double>::max();
  }
  const double router_inflight =
      static_cast<double>(slot->inflight.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->last_gossip_us == 0) {
    // Never heard: a fresh joiner is presumed idle — only what we have in
    // flight toward it counts.
    return router_inflight;
  }
  const dpolicy::ElasticitySignals& s = slot->status.signals;
  double load = router_inflight + static_cast<double>(slot->status.inflight) +
                static_cast<double>(s.compute_backlog + s.comm_backlog);
  const dbase::Micros age =
      dbase::MonotonicClock::Get()->NowMicros() - slot->last_gossip_us;
  if (age > config_.membership.suspect_after_us) {
    // Stale signals: rank below every fresh node without hard-excluding.
    load += 1e6;
  }
  return load;
}

int Cluster::PickNode(const InvocationRequest& request, const std::set<int>& exclude) {
  const int total = total_nodes();
  if (total == 0) {
    return -1;
  }
  // Locality first: the sticky node wins while it is healthy and below its
  // gossiped admission cap; otherwise fall through to the load fallback.
  if (config_.policy == LoadBalancePolicy::kLocality) {
    const int affine = AffinityFor(request.composition);
    if (affine >= 0 && affine < total && Eligible(affine, exclude, false)) {
      NodeSlot* slot = slot_at(affine);
      const uint64_t router_inflight = static_cast<uint64_t>(
          std::max<int64_t>(0, slot->inflight.load(std::memory_order_relaxed)));
      std::lock_guard<std::mutex> lock(slot->mu);
      if (slot->status.admission_cap == 0 ||
          slot->status.inflight + router_inflight < slot->status.admission_cap) {
        return affine;
      }
    }
  }
  // Batch work tolerates queueing: under the load-aware policies it still
  // spreads round-robin (backlog smoothing) while interactive requests pay
  // the load scan for the quietest node.
  const bool scan = config_.policy != LoadBalancePolicy::kRoundRobin &&
                    request.priority != PriorityClass::kBatch && total > 1;
  for (const bool allow_suspect : {false, true}) {
    if (!scan) {
      const uint64_t start = round_robin_.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < total; ++i) {
        const int candidate = static_cast<int>((start + static_cast<uint64_t>(i)) %
                                               static_cast<uint64_t>(total));
        if (Eligible(candidate, exclude, allow_suspect)) {
          return candidate;
        }
      }
      continue;
    }
    int best = -1;
    double best_load = std::numeric_limits<double>::max();
    for (int n = 0; n < total; ++n) {
      if (!Eligible(n, exclude, allow_suspect)) {
        continue;
      }
      const double load = NodeLoad(n);
      if (load < best_load) {
        best_load = load;
        best = n;
      }
    }
    if (best >= 0) {
      return best;
    }
  }
  return -1;
}

void Cluster::Dispatch(std::shared_ptr<Routed> routed, int attempts, std::set<int> tried,
                       bool shed_rerouted) {
  const InvocationRequest& request = routed->request;
  if (routed->control->stop_requested()) {
    // Cancelled between attempts: nothing is on the wire to chase.
    routed->Finish(dbase::Cancelled("invocation cancelled"), -1, attempts);
    return;
  }
  const int index = PickNode(request, tried);
  if (index < 0) {
    no_eligible_node_.fetch_add(1, std::memory_order_relaxed);
    routed->Finish(
        dbase::Unavailable("no eligible cluster node for '" + request.composition + "'"), -1,
        attempts + 1);
    return;
  }
  NodeSlot* slot = slot_at(index);

  dnet::WireInvoke wire;
  wire.composition = request.composition;
  // Payloads are refcounted slices: this copy shares buffers, and a
  // re-route after a shed or a dead peer re-sends the same bytes without
  // materializing them twice.
  wire.args = request.args;
  wire.priority = static_cast<uint8_t>(request.priority);
  wire.invocation_id = request.id;
  dbase::Micros timeout = kInvokeTimeoutUs;
  if (request.deadline_us > 0) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    const dbase::Micros remaining = request.deadline_us > now ? request.deadline_us - now : 1;
    wire.remaining_deadline_us = remaining;
    timeout = std::min(timeout, remaining + kDeadlineGraceUs);
  }

  slot->inflight.fetch_add(1, std::memory_order_relaxed);
  // From here on `request` is read-only shared state: the completion may
  // already be running (and re-routing) on the reactor.
  const uint64_t request_id = client_->InvokeAsync(
      slot->name, std::move(wire), timeout,
      [this, index, slot, routed, attempts, tried = std::move(tried),
       shed_rerouted](dbase::Result<dnet::WireOutcome> raw) mutable {
        slot->inflight.fetch_sub(1, std::memory_order_relaxed);
        const bool interactive = routed->request.priority != PriorityClass::kBatch;

        if (!raw.ok()) {
          // Transport-level failure. kUnavailable means the peer (or the
          // connection to it) died mid-flight — FailureKind::kPeerLost,
          // retry-safe because functions are pure. Everything else
          // (deadline, shutdown) is the client's own doing and surfaces.
          if (raw.status().code() == dbase::StatusCode::kUnavailable) {
            dpolicy::RetryDecision decision;
            {
              std::lock_guard<std::mutex> lock(policy_mu_);
              decision = remote_retry_.OnFailure(slot->name, dpolicy::FailureKind::kPeerLost,
                                                 interactive, attempts,
                                                 dbase::MonotonicClock::Get()->NowMicros());
            }
            {
              std::lock_guard<std::mutex> slot_lock(slot->mu);
              if (slot->state == dpolicy::MemberState::kActive) {
                slot->state = dpolicy::MemberState::kSuspect;
              }
            }
            if (decision.retry) {
              reroutes_peer_lost_.fetch_add(1, std::memory_order_relaxed);
              tried.insert(index);
              Dispatch(std::move(routed), attempts + 1, std::move(tried), shed_rerouted);
              return;
            }
            reroute_denied_.fetch_add(1, std::memory_order_relaxed);
          }
          routed->Finish(raw.status(), index, attempts + 1);
          return;
        }

        dnet::WireOutcome outcome = std::move(raw).value();
        if (outcome.shed && !shed_rerouted) {
          // 429-style admission shed: re-route once, then surface.
          reroutes_shed_.fetch_add(1, std::memory_order_relaxed);
          tried.insert(index);
          Dispatch(std::move(routed), attempts + 1, std::move(tried), /*shed_rerouted=*/true);
          return;
        }
        if (outcome.code == dbase::StatusCode::kOk) {
          {
            std::lock_guard<std::mutex> lock(policy_mu_);
            remote_retry_.OnSuccess(slot->name);
          }
          slot->served.fetch_add(1, std::memory_order_relaxed);
          NoteAffinity(routed->request.composition, index);
          routed->Finish(std::move(outcome.sets), index, attempts + 1);
          return;
        }
        // A failure the node itself reported: deterministic function
        // failures (including jail kills, never retry-safe), cancels, and
        // errors its own RetryPolicy already gave up on surface unchanged.
        routed->Finish(dbase::Status(outcome.code, std::move(outcome.message)), index,
                       attempts + 1);
      });
  {
    std::lock_guard<std::mutex> lock(routed->mu);
    // Request ids only grow, so a stale attempt never overwrites the
    // re-route that already replaced it.
    if (request_id > routed->request_id) {
      routed->peer = slot->name;
      routed->request_id = request_id;
    }
  }
  // A Cancel() that ran before this attempt was recorded had nothing to
  // chase; send its kCancel now.
  if (routed->control->stop_requested()) {
    client_->Cancel(slot->name, request_id);
  }
}

InvocationHandle Cluster::InvokeRouted(InvocationRequest request, RoutedCallback callback) {
  if (request.id == 0) {
    // One cluster-wide id per invocation: re-routes keep it, so a node
    // serving a re-sent invocation and the cancel path agree on identity.
    request.id = next_invocation_id_.fetch_add(1, std::memory_order_relaxed);
  }
  auto routed = std::make_shared<Routed>();
  routed->control = std::make_shared<InvocationControl>(
      request.id, request.priority, request.deadline_us,
      dbase::MonotonicClock::Get()->NowMicros());
  routed->request = std::move(request);
  routed->callback = std::move(callback);
  // The hook holds the client and the invocation weakly: a Cancel() after
  // the Cluster is gone, or after the invocation finished, does nothing.
  routed->control->set_cancel_hook(
      [weak_client = std::weak_ptr<dnet::NodeClient>(client_),
       weak_routed = std::weak_ptr<Routed>(routed)] {
        const std::shared_ptr<dnet::NodeClient> client = weak_client.lock();
        const std::shared_ptr<Routed> live = weak_routed.lock();
        if (client == nullptr || live == nullptr) {
          return;
        }
        std::lock_guard<std::mutex> lock(live->mu);
        if (live->request_id != 0) {
          client->Cancel(live->peer, live->request_id);
        }
      });
  InvocationHandle handle(routed->control);
  Dispatch(std::move(routed), /*attempts=*/0, {}, /*shed_rerouted=*/false);
  return handle;
}

InvocationHandle Cluster::InvokeAsync(
    InvocationRequest request,
    std::function<void(dbase::Result<dfunc::DataSetList>, int)> callback) {
  return InvokeRouted(std::move(request),
                      [callback = std::move(callback)](dbase::Result<dfunc::DataSetList> result,
                                                       int node, int /*attempts*/) {
                        callback(std::move(result), node);
                      });
}

Cluster::RoutedResult Cluster::Invoke(InvocationRequest request) {
  struct WaitState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RoutedResult routed;
  };
  auto state = std::make_shared<WaitState>();
  // Deadline-aware wait with the same never-hang backstop as
  // Dispatcher::Invoke: a lost callback surfaces as kDeadlineExceeded, it
  // does not block the caller forever.
  constexpr dbase::Micros kBlockingWaitCapUs = 120 * dbase::kMicrosPerSecond;
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  dbase::Micros wait_deadline = now + kBlockingWaitCapUs;
  if (request.deadline_us > 0) {
    wait_deadline = std::min(wait_deadline, request.deadline_us);
  }
  InvocationHandle handle = InvokeRouted(
      std::move(request),
      [this, state](dbase::Result<dfunc::DataSetList> result, int node, int attempts) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->routed.result = std::move(result);
        state->routed.node_index = node;
        state->routed.node_name = NodeName(node);
        state->routed.attempts = attempts;
        state->done = true;
        state->cv.notify_one();
      });
  std::unique_lock<std::mutex> lock(state->mu);
  while (!state->done) {
    const dbase::Micros remaining =
        wait_deadline - dbase::MonotonicClock::Get()->NowMicros();
    if (remaining <= 0) {
      // The serving node's reaper owes us a terminal callback imminently;
      // one bounded grace wait covers scheduling skew before giving up.
      if (!state->cv.wait_for(lock, std::chrono::seconds(5), [&] { return state->done; })) {
        lock.unlock();
        handle.Cancel();
        RoutedResult routed;
        routed.result = dbase::DeadlineExceeded("routed invoke timed out");
        return routed;
      }
      break;
    }
    state->cv.wait_for(lock, std::chrono::microseconds(remaining));
  }
  return std::move(state->routed);
}

std::string Cluster::NodeName(int index) const {
  NodeSlot* slot = slot_at(index);
  return slot != nullptr ? slot->name : "";
}

std::vector<Cluster::CoreSplit> Cluster::CoreSplits() const {
  std::vector<CoreSplit> splits;
  splits.reserve(locals_.size());
  for (const auto& local : locals_) {
    // One role scan per node (full EngineStats would lock every queue shard
    // just to read two ints); comm derived so the split sums to the pool.
    const WorkerSet& workers = local->platform.workers();
    const int compute = workers.compute_workers();
    splits.push_back({compute, workers.total_workers() - compute});
  }
  return splits;
}

struct Cluster::GossipRound {
  std::vector<NodeSlot*> slots;  // Every slot, in node-index order.
  std::atomic<size_t> outstanding{0};
};

void Cluster::GossipNow() {
  dbase::Latch closed(1);
  StartGossipRound([&closed] { closed.CountDown(); });
  closed.Wait();
}

void Cluster::StartGossipRound(std::function<void()> on_closed) {
  {
    std::lock_guard<std::mutex> lock(gossip_mu_);
    if (on_closed) {
      gossip_waiters_.push_back(std::move(on_closed));
    }
    if (gossip_open_) {
      return;
    }
    gossip_open_ = true;
  }
  auto round = std::make_shared<GossipRound>();
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    for (const auto& slot : slots_) {
      round->slots.push_back(slot.get());
    }
  }
  // One share per probe plus the starter's, released once every probe is
  // out, so the round cannot close while probes are still being sent.
  round->outstanding.store(round->slots.size() + 1, std::memory_order_relaxed);
  const auto release = [this, round] {
    if (round->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      CloseGossipRound(*round);
    }
  };
  const dbase::Micros timeout =
      config_.gossip_interval_us > 0
          ? std::min(config_.gossip_interval_us, kGossipTimeoutCapUs)
          : kGossipTimeoutCapUs;
  for (size_t i = 0; i < round->slots.size(); ++i) {
    NodeSlot* slot = round->slots[i];
    bool probe = true;
    {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      // Administratively removed nodes (disconnected peer) are skipped
      // entirely; staleness-evicted ones keep getting probed so they can
      // rejoin when they come back.
      probe = !(slot->state == dpolicy::MemberState::kLeft && slot->last_gossip_us == 0);
    }
    if (!probe) {
      release();
      continue;
    }
    const int index = static_cast<int>(i);
    client_->GossipAsync(slot->name, timeout, [this, slot, index, release](auto status) {
      if (status.ok()) {
        std::lock_guard<std::mutex> slot_lock(slot->mu);
        slot->status = std::move(status).value();
        slot->last_gossip_us = dbase::MonotonicClock::Get()->NowMicros();
        // Gossiped residency feeds locality routing: route a composition to
        // the node that already holds its context/data.
        for (const std::string& composition : slot->status.resident_compositions) {
          NoteAffinity(composition, index);
        }
      }
      release();
    });
  }
  release();
}

void Cluster::CloseGossipRound(const GossipRound& round) {
  if (!round.slots.empty()) {
    std::vector<dpolicy::MemberSignals> signals;
    signals.reserve(round.slots.size());
    for (NodeSlot* slot : round.slots) {
      dpolicy::MemberSignals member;
      member.name = slot->name;
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      member.last_heard_us = slot->last_gossip_us;
      if (slot->status.admission_cap > 0) {
        member.utilization = static_cast<double>(slot->status.inflight) /
                             static_cast<double>(slot->status.admission_cap);
      }
      signals.push_back(std::move(member));
    }
    dpolicy::MembershipDecision decision;
    {
      std::lock_guard<std::mutex> lock(policy_mu_);
      decision = membership_.Tick(dbase::MonotonicClock::Get()->NowMicros(), signals);
    }
    ApplyMembership(decision);
    gossip_rounds_.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::function<void()>> waiters;
  {
    std::lock_guard<std::mutex> lock(gossip_mu_);
    gossip_open_ = false;
    waiters.swap(gossip_waiters_);
  }
  for (const auto& waiter : waiters) {
    waiter();
  }
}

void Cluster::ApplyMembership(const dpolicy::MembershipDecision& decision) {
  // Scale hints are only counted (MembershipStats); the transitions are
  // applied.
  for (const dpolicy::MemberTransition& transition : decision.transitions) {
    NodeSlot* found = nullptr;
    {
      std::lock_guard<std::mutex> lock(slots_mu_);
      for (const auto& slot : slots_) {
        if (slot->name == transition.name) {
          found = slot.get();
          break;
        }
      }
    }
    if (found == nullptr) {
      continue;
    }
    std::lock_guard<std::mutex> slot_lock(found->mu);
    found->state = transition.to;
  }
}

Cluster::ClusterStats Cluster::Stats() const {
  ClusterStats stats;
  stats.reroutes_shed = reroutes_shed_.load(std::memory_order_relaxed);
  stats.reroutes_peer_lost = reroutes_peer_lost_.load(std::memory_order_relaxed);
  stats.reroute_denied = reroute_denied_.load(std::memory_order_relaxed);
  stats.no_eligible_node = no_eligible_node_.load(std::memory_order_relaxed);
  stats.gossip_rounds = gossip_rounds_.load(std::memory_order_relaxed);

  const auto wire = client_->SnapshotPeers();
  const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    for (const auto& slot : slots_) {
      PeerStats peer;
      peer.name = slot->name;
      peer.remote = slot->remote;
      peer.served = slot->served.load(std::memory_order_relaxed);
      peer.inflight = slot->inflight.load(std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> slot_lock(slot->mu);
        peer.state = dpolicy::MemberStateName(slot->state);
        peer.gossip_age_us =
            slot->last_gossip_us > 0 ? static_cast<int64_t>(now - slot->last_gossip_us) : -1;
        peer.remote_inflight = slot->status.inflight;
        peer.remote_admission_cap = slot->status.admission_cap;
        if (slot->status.admission_cap > 0) {
          peer.utilization = static_cast<double>(slot->status.inflight) /
                             static_cast<double>(slot->status.admission_cap);
        }
      }
      if (const auto it = wire.find(slot->name); it != wire.end()) {
        const dnet::PeerCounters& counters = *it->second;
        peer.invokes_sent = counters.invokes_sent.load(std::memory_order_relaxed);
        peer.sheds_received = counters.sheds_received.load(std::memory_order_relaxed);
        peer.peer_lost_failures = counters.peer_lost_failures.load(std::memory_order_relaxed);
        peer.bytes_sent = counters.bytes_sent.load(std::memory_order_relaxed);
        peer.bytes_received = counters.bytes_received.load(std::memory_order_relaxed);
      }
      stats.peers.push_back(std::move(peer));
    }
  }
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    stats.membership = membership_.stats();
    stats.remote_retry = remote_retry_.Stats();
  }
  return stats;
}

void Cluster::Shutdown() {
  if (shut_down_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  // Neither under slots_mu_: a running tick takes it, and stopping the
  // client fails the open round's probes, whose close applies membership
  // (taking slots_mu_) on the reactor. Stopping the client
  // first fails every routed invoke still on the wire; the in-process
  // nodes then see their router gone and cancel what it left behind.
  if (gossip_tick_ != nullptr) {
    gossip_tick_->Close();
  }
  client_->Stop();
  for (auto& local : locals_) {
    local->agent.Stop();
    local->platform.Shutdown();
  }
}

}  // namespace dandelion
