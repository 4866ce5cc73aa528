#include "src/runtime/cluster.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/runtime/node_agent.h"

namespace dandelion {

namespace {
// Backstop timeout for routed invokes carrying no deadline, on the wire
// and in the blocking Invoke.
constexpr dbase::Micros kInvokeTimeoutUs = 120 * dbase::kMicrosPerSecond;
// What the blocking Invoke waits past its bound for the serving node's
// terminal outcome before it gives up.
constexpr dbase::Micros kBlockingGraceUs = 5 * dbase::kMicrosPerSecond;
// Grace added to the router-side timeout when the request carries a
// deadline, so the serving node's own deadline machinery (which produces
// the richer report) wins the race against the client timer.
constexpr dbase::Micros kDeadlineGraceUs = 100 * dbase::kMicrosPerMilli;
// Per-peer gossip timeout cap: one slow peer must not stall the round.
constexpr dbase::Micros kGossipTimeoutCapUs = 500 * dbase::kMicrosPerMilli;
// Re-routes a lost peer may cost one invocation, counted with its earlier
// placement attempts: interactive work does not burn its deadline on long
// chains, batch work can afford more.
constexpr int kPeerLostReroutesInteractive = 1;
constexpr int kPeerLostReroutesBatch = 3;

std::string LocalName(int n) { return "local-" + std::to_string(n); }
}  // namespace

// An in-process engine: a Platform served by its own NodeAgent on an
// ephemeral loopback port, which the router reaches like any spawned node.
struct Cluster::LocalNode {
  LocalNode(const PlatformConfig& config, const std::string& name)
      : platform(config), agent(&platform, NodeAgentConfig{.node_name = name}) {}

  Platform platform;
  NodeAgent agent;
};

// One routed invocation, shared by its wire attempts and its control's
// stop hook.
struct Cluster::Routed {
  InvocationRequest request;
  RoutedCallback callback;
  std::shared_ptr<InvocationControl> control;

  // The attempt on the wire now: where the stop hook sends kCancel.
  // Reactor-only.
  std::string peer;
  uint64_t request_id = 0;  // 0 = none sent yet.

  void Finish(dbase::Result<dfunc::DataSetList> result, int node, int attempts) {
    control->MarkDone(result.status(), dbase::MonotonicClock::Get()->NowMicros());
    callback(std::move(result), node, attempts);
  }
};

Cluster::Cluster(Config config)
    : config_(std::move(config)),
      client_(config_.router_name),
      membership_(config_.membership),
      scope_(std::make_shared<dbase::EventLoop::Scope>(dbase::EventLoop::Process())) {
  // A client that cannot start fails every invoke with kFailedPrecondition.
  (void)client_.Start();
  // With remote nodes configured a router-only cluster (0 in-process
  // nodes) is legitimate; a fully empty cluster is not.
  const int locals = config_.remote_nodes.empty() ? std::max(1, config_.num_nodes)
                                                  : std::max(0, config_.num_nodes);
  for (int n = 0; n < locals; ++n) {
    const std::string name = LocalName(n);
    auto local = std::make_unique<LocalNode>(config_.node_config, name);
    const dbase::Status started = local->agent.Start();
    if (!started.ok()) {
      DLOG(Warning) << name << " cannot serve the node wire: " << started.ToString();
    }
    locals_.push_back(std::move(local));
  }
  // Every join in one reactor round trip.
  scope_->Run([this] {
    for (size_t n = 0; n < locals_.size(); ++n) {
      (void)AddNode(LocalName(static_cast<int>(n)), locals_[n]->agent.port(), /*remote=*/false);
    }
    for (const RemoteNode& remote : config_.remote_nodes) {
      (void)AddNode(remote.name, remote.port, /*remote=*/true);
    }
    if (config_.gossip_interval_us > 0) {
      ArmGossipTick();
    }
  });
}

void Cluster::ArmGossipTick() {
  scope_->AddTimer(config_.gossip_interval_us, [this] {
    if (shut_down_.load(std::memory_order_relaxed)) {
      return;
    }
    // A tick while the previous round is still open skips.
    StartGossipRound(nullptr);
    ArmGossipTick();
  });
}

Cluster::~Cluster() {
  Shutdown();
  scope_->Close();
}

Platform& Cluster::node(int index) { return locals_[static_cast<size_t>(index)]->platform; }

dbase::Status Cluster::AddRemoteNode(const std::string& name, uint16_t port) {
  dbase::Status added = dbase::FailedPrecondition("cluster destroyed");
  scope_->Run([&] { added = AddNode(name, port, /*remote=*/true); });
  return added;
}

dbase::Status Cluster::AddNode(const std::string& name, uint16_t port, bool remote) {
  for (auto& slot : slots_) {
    if (slot->name != name) {
      continue;
    }
    if (slot->state != dpolicy::MemberState::kLeft) {
      return dbase::AlreadyExists("node already joined: " + name);
    }
    // Administrative rejoin of an evicted/removed node (possibly on a new
    // port after a restart).
    slot->state = dpolicy::MemberState::kActive;
    slot->last_gossip_us = 0;
    client_.RemovePeer(name);
    client_.AddPeer(name, port);
    return dbase::OkStatus();
  }
  client_.AddPeer(name, port);
  auto slot = std::make_unique<NodeSlot>();
  slot->name = name;
  slot->remote = remote;
  slots_.push_back(std::move(slot));
  return dbase::OkStatus();
}

void Cluster::RemoveRemoteNode(const std::string& name) {
  scope_->Run([&] {
    for (auto& slot : slots_) {
      if (slot->name == name) {
        slot->state = dpolicy::MemberState::kLeft;
        // Administrative leave really disconnects (unlike staleness
        // eviction, which keeps probing so the node can rejoin when it
        // recovers).
        client_.RemovePeer(name);
        return;
      }
    }
  });
}

int Cluster::total_nodes() const {
  int total = 0;
  scope_->Run([&] { total = static_cast<int>(slots_.size()); });
  return total;
}

Cluster::NodeSlot* Cluster::slot_at(int index) const {
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

bool Cluster::Eligible(int index, const std::set<int>& exclude, bool allow_suspect) const {
  if (exclude.count(index) > 0) {
    return false;
  }
  const NodeSlot* slot = slot_at(index);
  if (slot == nullptr) {
    return false;
  }
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

double Cluster::NodeLoad(const NodeSlot& slot) const {
  const double router_inflight = static_cast<double>(slot.inflight);
  if (slot.last_gossip_us == 0) {
    // Never heard: a fresh joiner is presumed idle — only what we have in
    // flight toward it counts.
    return router_inflight;
  }
  double load = router_inflight + static_cast<double>(slot.status.inflight) +
                static_cast<double>(slot.status.backlog);
  const dbase::Micros age = dbase::MonotonicClock::Get()->NowMicros() - slot.last_gossip_us;
  if (age > config_.membership.suspect_after_us) {
    // Stale signals: rank below every fresh node without hard-excluding.
    load += 1e6;
  }
  return load;
}

int Cluster::PickNode(const InvocationRequest& request, const std::set<int>& exclude) {
  const int total = static_cast<int>(slots_.size());
  if (total == 0) {
    return -1;
  }
  // Batch work tolerates queueing: under kLeastLoaded it still spreads
  // round-robin (backlog smoothing) while interactive requests pay the load
  // scan for the quietest node.
  const bool scan = config_.policy == LoadBalancePolicy::kLeastLoaded &&
                    request.priority != PriorityClass::kBatch && total > 1;
  for (const bool allow_suspect : {false, true}) {
    if (!scan) {
      const uint64_t start = round_robin_++;
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
      const double load = NodeLoad(*slots_[static_cast<size_t>(n)]);
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
    ++no_eligible_node_;
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

  ++slot->inflight;
  // A refused connect runs the completion (and its re-route) inside this
  // call.
  const uint64_t request_id = client_.InvokeAsync(
      slot->name, std::move(wire), timeout,
      [this, index, slot, routed, attempts, tried = std::move(tried),
       shed_rerouted](dbase::Result<dnet::WireOutcome> raw) mutable {
        --slot->inflight;
        const bool interactive = routed->request.priority != PriorityClass::kBatch;

        if (!raw.ok()) {
          // Transport-level failure. kUnavailable means the peer (or the
          // connection to it) died mid-flight — FailureKind::kPeerLost,
          // retry-safe because functions are pure, so every invocation it
          // held re-routes within its class's budget. The suspect mark
          // keeps new traffic off the node. Everything else (deadline,
          // shutdown) is the client's own doing and surfaces.
          if (raw.status().code() == dbase::StatusCode::kUnavailable) {
            if (slot->state == dpolicy::MemberState::kActive) {
              slot->state = dpolicy::MemberState::kSuspect;
            }
            if (attempts < (interactive ? kPeerLostReroutesInteractive : kPeerLostReroutesBatch)) {
              ++reroutes_peer_lost_;
              tried.insert(index);
              Dispatch(std::move(routed), attempts + 1, std::move(tried), shed_rerouted);
              return;
            }
            ++reroute_denied_;
          }
          routed->Finish(raw.status(), index, attempts + 1);
          return;
        }

        dnet::WireOutcome outcome = std::move(raw).value();
        if (outcome.shed && !shed_rerouted) {
          // 429-style admission shed: re-route once, then surface.
          ++reroutes_shed_;
          tried.insert(index);
          Dispatch(std::move(routed), attempts + 1, std::move(tried), /*shed_rerouted=*/true);
          return;
        }
        if (outcome.code == dbase::StatusCode::kOk) {
          ++slot->served;
          routed->Finish(std::move(outcome.sets), index, attempts + 1);
          return;
        }
        // A failure the node itself reported: deterministic function
        // failures (including jail kills, never retry-safe), cancels, and
        // errors its own RetryPolicy already gave up on surface unchanged.
        routed->Finish(dbase::Status(outcome.code, std::move(outcome.message)), index,
                       attempts + 1);
      });
  // Request ids only grow, so a stale attempt never overwrites the
  // re-route that already replaced it. A stop hook's kCancel is posted, so
  // it runs after this record.
  if (request_id > routed->request_id) {
    routed->peer = slot->name;
    routed->request_id = request_id;
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
  // The stop hook chases the attempt on the wire with kCancel, posted to
  // the reactor behind the first placement. It holds the router's scope
  // and the invocation weakly: a stop after the Cluster is gone, or after
  // the invocation finished, does nothing.
  routed->control->set_stop_hook([this, weak_scope = std::weak_ptr(scope_),
                                  weak_routed = std::weak_ptr<Routed>(routed)] {
    if (const auto scope = weak_scope.lock()) {
      scope->Post([this, weak_routed] {
        const std::shared_ptr<Routed> live = weak_routed.lock();
        if (live != nullptr && live->request_id != 0) {
          client_.Cancel(live->peer, live->request_id);
        }
      });
    }
  });
  InvocationHandle handle(routed->control);
  if (dbase::EventLoop::Process()->IsLoopThread()) {
    Dispatch(std::move(routed), /*attempts=*/0, {}, /*shed_rerouted=*/false);
  } else {
    scope_->Post([this, routed = std::move(routed)]() mutable {
      Dispatch(std::move(routed), /*attempts=*/0, {}, /*shed_rerouted=*/false);
    });
  }
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
  // Deadline-aware, with the same never-hang backstop as Dispatcher::Invoke,
  // plus a grace that lets the serving node's own deadline answer first.
  dbase::Micros until_us = dbase::MonotonicClock::Get()->NowMicros() + kInvokeTimeoutUs;
  if (request.deadline_us > 0) {
    until_us = std::min(until_us, request.deadline_us);
  }
  auto wait = std::make_shared<BlockingWait<RoutedResult>>();
  const InvocationHandle handle = InvokeRouted(
      std::move(request),
      [this, wait](dbase::Result<dfunc::DataSetList> result, int node, int attempts) {
        RoutedResult routed;
        routed.result = std::move(result);
        routed.node_index = node;
        routed.node_name = NodeName(node);
        routed.attempts = attempts;
        wait->Set(std::move(routed));
      });
  if (auto routed = wait->Await(handle, until_us + kBlockingGraceUs,
                                dbase::StatusCode::kCancelled)) {
    return std::move(*routed);
  }
  RoutedResult routed;
  routed.result = dbase::DeadlineExceeded("routed invoke timed out");
  return routed;
}

std::string Cluster::NodeName(int index) const {
  const NodeSlot* slot = slot_at(index);
  return slot != nullptr ? slot->name : "";
}

std::vector<Cluster::CoreSplit> Cluster::CoreSplits() const {
  std::vector<CoreSplit> splits;
  splits.reserve(locals_.size());
  for (const auto& local : locals_) {
    // One role scan per node (full EngineStats would lock both queues and
    // the wait histograms just to read two ints); comm derived so the split
    // sums to the pool.
    const WorkerSet& workers = local->platform.workers();
    const int compute = workers.compute_workers();
    splits.push_back({compute, workers.total_workers() - compute});
  }
  return splits;
}

struct Cluster::GossipRound {
  std::vector<NodeSlot*> slots;  // Every slot, in node-index order.
  size_t outstanding = 0;
};

void Cluster::GossipNow() {
  dbase::Latch closed(1);
  if (scope_->Run([&] { StartGossipRound([&closed] { closed.CountDown(); }); })) {
    closed.Wait();
  }
}

void Cluster::StartGossipRound(std::function<void()> on_closed) {
  if (on_closed) {
    gossip_waiters_.push_back(std::move(on_closed));
  }
  if (gossip_open_) {
    return;
  }
  gossip_open_ = true;
  auto round = std::make_shared<GossipRound>();
  for (const auto& slot : slots_) {
    round->slots.push_back(slot.get());
  }
  // One share per probe plus the starter's, released once every probe is
  // out: a probe refused on the spot completes inside GossipAsync, and
  // the round must not close while probes are still being sent.
  round->outstanding = round->slots.size() + 1;
  const auto release = [this, round] {
    if (--round->outstanding == 0) {
      CloseGossipRound(*round);
    }
  };
  const dbase::Micros timeout =
      config_.gossip_interval_us > 0
          ? std::min(config_.gossip_interval_us, kGossipTimeoutCapUs)
          : kGossipTimeoutCapUs;
  for (NodeSlot* slot : round->slots) {
    // Administratively removed nodes (disconnected peer) are skipped
    // entirely; staleness-evicted ones keep getting probed so they can
    // rejoin when they come back.
    if (slot->state == dpolicy::MemberState::kLeft && slot->last_gossip_us == 0) {
      release();
      continue;
    }
    client_.GossipAsync(slot->name, timeout, [slot, release](auto status) {
      if (status.ok()) {
        slot->status = std::move(status).value();
        slot->last_gossip_us = dbase::MonotonicClock::Get()->NowMicros();
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
    for (const NodeSlot* slot : round.slots) {
      signals.push_back({slot->name, slot->last_gossip_us});
    }
    ApplyMembership(membership_.Tick(dbase::MonotonicClock::Get()->NowMicros(), signals));
    ++gossip_rounds_;
  }
  gossip_open_ = false;
  std::vector<std::function<void()>> waiters;
  waiters.swap(gossip_waiters_);
  for (const auto& waiter : waiters) {
    waiter();
  }
}

void Cluster::ApplyMembership(const dpolicy::MembershipDecision& decision) {
  for (const dpolicy::MemberTransition& transition : decision.transitions) {
    for (const auto& slot : slots_) {
      if (slot->name == transition.name) {
        slot->state = transition.to;
        break;
      }
    }
  }
}

Cluster::ClusterStats Cluster::Stats() const {
  ClusterStats stats;
  scope_->Run([&] {
    stats.reroutes_shed = reroutes_shed_;
    stats.reroutes_peer_lost = reroutes_peer_lost_;
    stats.reroute_denied = reroute_denied_;
    stats.no_eligible_node = no_eligible_node_;
    stats.gossip_rounds = gossip_rounds_;
    stats.membership = membership_.stats();
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    for (const auto& slot : slots_) {
      PeerStats peer;
      peer.name = slot->name;
      peer.remote = slot->remote;
      peer.served = slot->served;
      peer.inflight = slot->inflight;
      peer.state = dpolicy::MemberStateName(slot->state);
      peer.gossip_age_us =
          slot->last_gossip_us > 0 ? static_cast<int64_t>(now - slot->last_gossip_us) : -1;
      peer.remote_inflight = slot->status.inflight;
      peer.remote_admission_cap = slot->status.admission_cap;
      if (slot->status.admission_cap > 0) {
        peer.utilization = static_cast<double>(slot->status.inflight) /
                           static_cast<double>(slot->status.admission_cap);
      }
      if (const dnet::PeerCounters* counters = client_.counters(slot->name)) {
        peer.invokes_sent = counters->invokes_sent;
        peer.sheds_received = counters->sheds_received;
        peer.peer_lost_failures = counters->peer_lost_failures;
        peer.bytes_sent = counters->bytes_sent;
        peer.bytes_received = counters->bytes_received;
      }
      stats.peers.push_back(std::move(peer));
    }
  });
  return stats;
}

void Cluster::Shutdown() {
  if (shut_down_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  // Stopping the client fails every routed invoke still on the wire, and
  // the open gossip round's probes, on the reactor; an invoke placed after
  // it fails at the stopped client. The in-process nodes then see their
  // router gone and cancel what it left behind. The router's scope stays
  // open until the destructor, so Stats() still answers; the gossip tick
  // sees shut_down_ and stops.
  client_.Stop();
  for (auto& local : locals_) {
    local->agent.Stop();
    local->platform.Shutdown();
  }
}

}  // namespace dandelion
