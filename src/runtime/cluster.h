// Cluster manager (§5): "orchestrates multiple worker nodes and load
// balances composition invocations across nodes. We extended Dirigent to
// support Dandelion worker nodes."
//
// Every node is reached the same way: over the dnet wire (ROADMAP
// "Distributed data plane") through one connection-pooling NodeClient.
// Nodes are either spawned engine processes (dandelion_node) or the
// Cluster's own in-process Platforms, each served by a NodeAgent on an
// ephemeral loopback port. Both join through the same path, so placement,
// shedding, peer loss, gossip and cancel exist once; "in-process" only
// decides who owns the engine.
//
// Routing is locality-aware under LoadBalancePolicy::kLocality: a
// composition goes to the node that served it most recently (locally
// observed, plus the resident-composition lists nodes gossip), falling
// back to kLeastLoaded when the sticky node is saturated, suspect or gone.
// Node load is read from gossiped ElasticitySignals plus what the router
// itself has in flight toward the node.
//
// Cross-node shedding: a node that responds 429-style (kUnavailable with
// the shed frame flag) gets the invocation re-routed once to another node
// before the error surfaces. Transport failures map into the failure
// taxonomy as FailureKind::kPeerLost — retry-safe, because Dandelion
// functions are pure — and are absorbed by a router-side RetryPolicy
// (breaker keyed by node) that re-routes to surviving nodes; jail kills
// and other deterministic function failures surface unchanged. A routed
// handle's Cancel() sends kCancel for the attempt currently on the wire.
// Node join/leave is policy-driven: periodic gossip rounds feed
// dpolicy::MembershipPolicy, which suspects stale peers, evicts dead ones,
// re-admits rejoiners, and emits fleet scale hints (counted, not acted on).
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/event_loop.h"
#include "src/net/node_client.h"
#include "src/policy/membership.h"
#include "src/policy/retry.h"
#include "src/runtime/platform.h"

namespace dandelion {

enum class LoadBalancePolicy {
  kRoundRobin,
  // Routes to the node with the fewest in-flight invocations + queued
  // engine tasks (router in-flight plus the gossiped backlog).
  kLeastLoaded,
  // Sticky composition→node affinity from serve history and gossiped
  // residency; falls back to kLeastLoaded when the affine node is
  // saturated or unavailable.
  kLocality,
};

class Cluster {
 public:
  struct RemoteNode {
    std::string name;
    uint16_t port = 0;
  };

  struct Config {
    // In-process nodes (joined first, as local-0, local-1, ...); 0 is
    // allowed when remote nodes are configured.
    int num_nodes = 2;
    PlatformConfig node_config;
    LoadBalancePolicy policy = LoadBalancePolicy::kRoundRobin;

    // Engine processes to dial over the dnet wire (loopback ports).
    std::vector<RemoteNode> remote_nodes;
    std::string router_name = "router";
    // Gossip cadence for node signals + membership; 0 disables the
    // periodic round (tests drive GossipNow() by hand).
    dbase::Micros gossip_interval_us = 200 * dbase::kMicrosPerMilli;
    dpolicy::MembershipOptions membership;
  };

  explicit Cluster(Config config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // In-process nodes: node indices [0, num_nodes()).
  int num_nodes() const { return static_cast<int>(locals_.size()); }
  Platform& node(int index);
  // Every node ever joined, in-process ones included (slots persist
  // through eviction so node indices stay stable).
  int total_nodes() const;

  // Dynamic membership: join a running engine process / drain one (any
  // node, by name). Join makes the node routable immediately; the
  // membership policy evicts it if it never answers gossip.
  dbase::Status AddRemoteNode(const std::string& name, uint16_t port);
  void RemoveRemoteNode(const std::string& name);

  // Registration is cluster-wide for in-process nodes (a node can only
  // serve what it has registered); spawned nodes register their own
  // functions at spawn (see src/tools/dandelion_node.cc).
  dbase::Status RegisterFunction(const dfunc::FunctionSpec& spec);
  dbase::Status RegisterCompositionDsl(std::string_view dsl_source);

  // Applies `setup` to every in-process node — e.g. registering mesh
  // services.
  void ForEachNode(const std::function<void(Platform&)>& setup);

  // Load-balanced invocation. Returns the result plus which node served it
  // (for tests and placement studies). `result` is empty only before the
  // invocation has been routed — a terminal RoutedResult always holds one.
  struct RoutedResult {
    std::optional<dbase::Result<dfunc::DataSetList>> result;
    int node_index = -1;
    std::string node_name;
    // Total placement attempts: >1 means shedding or peer loss re-routed.
    int attempts = 1;

    bool ok() const { return result.has_value() && result->ok(); }
    dbase::Status status() const {
      return result.has_value() ? result->status() : dbase::Unavailable("not routed");
    }
    const dfunc::DataSetList& sets() const { return result->value(); }
  };
  // Routed invokes take first-class requests: the deadline travels with
  // the invocation to whichever node serves it (as the *remaining* time,
  // re-anchored on the node's clock), the returned handle's Cancel()
  // reaches that node, and placement can consider the request class
  // (under kLeastLoaded, interactive requests pay the load scan while
  // batch spreads round-robin — backlog smoothing is enough for work that
  // tolerates queueing).
  RoutedResult Invoke(InvocationRequest request);
  InvocationHandle InvokeAsync(
      InvocationRequest request,
      std::function<void(dbase::Result<dfunc::DataSetList>, int node)> callback);

  // Compute/comm core split of each in-process node — the cluster-wide view
  // of what each node's elasticity control plane (configured via
  // node_config) has done.
  struct CoreSplit {
    int compute_workers = 0;
    int comm_workers = 0;
  };
  std::vector<CoreSplit> CoreSplits() const;

  // Runs one gossip + membership round and blocks until it closes (joining
  // the periodic round when one is already open). Tests and benches call it
  // to refresh membership on demand.
  void GossipNow();

  // The statz "cluster" section's source of truth.
  struct PeerStats {
    std::string name;
    bool remote = false;  // A spawned node rather than an in-process one.
    std::string_view state = "active";
    uint64_t served = 0;
    int64_t inflight = 0;  // Router-side in-flight toward this node.
    // Wire counters, loaded from the NodeClient's live PeerCounters.
    uint64_t invokes_sent = 0;
    uint64_t sheds_received = 0;
    uint64_t peer_lost_failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Age of the last gossip snapshot; -1 = never heard.
    int64_t gossip_age_us = -1;
    // From the peer's last gossiped ElasticitySignals.
    uint64_t remote_inflight = 0;
    uint64_t remote_admission_cap = 0;
    double utilization = 0.0;
  };
  struct ClusterStats {
    std::vector<PeerStats> peers;
    uint64_t reroutes_shed = 0;
    uint64_t reroutes_peer_lost = 0;
    uint64_t reroute_denied = 0;
    uint64_t no_eligible_node = 0;
    uint64_t gossip_rounds = 0;
    dpolicy::MembershipStats membership;
    dpolicy::RetryPolicyStats remote_retry;
  };
  ClusterStats Stats() const;

  void Shutdown();

 private:
  // One node as the router sees it. Node indices are join order; slots are
  // never erased (indices stay stable), and evicted ones sit in
  // MemberState::kLeft until their node gossips again.
  struct NodeSlot {
    std::string name;
    bool remote = false;
    std::atomic<uint64_t> served{0};
    std::atomic<int64_t> inflight{0};
    mutable std::mutex mu;
    dnet::WireNodeStatus status;              // Last gossip snapshot.
    dbase::Micros last_gossip_us = 0;         // 0 = never heard.
    dpolicy::MemberState state = dpolicy::MemberState::kActive;
  };
  struct LocalNode;
  struct Routed;

  // Internal terminal callback: result, serving node index, total
  // placement attempts (so RoutedResult can report re-routes).
  using RoutedCallback =
      std::function<void(dbase::Result<dfunc::DataSetList>, int node, int attempts)>;

  dbase::Status AddNode(const std::string& name, uint16_t port, bool remote);
  int PickNode(const InvocationRequest& request, const std::set<int>& exclude);
  double NodeLoad(int index) const;
  bool Eligible(int index, const std::set<int>& exclude, bool allow_suspect) const;
  void Dispatch(std::shared_ptr<Routed> routed, int attempts, std::set<int> tried,
                bool shed_rerouted);
  InvocationHandle InvokeRouted(InvocationRequest request, RoutedCallback callback);
  void NoteAffinity(const std::string& composition, int index);
  int AffinityFor(const std::string& composition) const;
  std::string NodeName(int index) const;
  NodeSlot* slot_at(int index) const;
  void ApplyMembership(const dpolicy::MembershipDecision& decision);

  // Gossip rounds. A round probes every slot asynchronously; the replies
  // land on the process reactor, and the last one closes the round:
  // membership Tick, ApplyMembership, gossip_rounds_ += 1 (skipped when
  // there are no slots), then the waiters run. At most one round is open at
  // a time; `on_closed` (may be null) joins the open one.
  struct GossipRound;
  void StartGossipRound(std::function<void()> on_closed);
  void CloseGossipRound(const GossipRound& round);
  // The periodic round: a reactor timer that re-arms at the end of each
  // run, so the interval counts from the end of the previous start.
  void ArmGossipTick();

  Config config_;
  // Shared so a routed handle's cancel hook can hold it weakly: a handle
  // that outlives the Cluster cancels nothing.
  std::shared_ptr<dnet::NodeClient> client_;
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<uint64_t> next_invocation_id_{1};

  // slots_ is append-only under slots_mu_; slots are heap-allocated so raw
  // pointers stay valid across growth.
  mutable std::mutex slots_mu_;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  // The engines behind the in-process slots; fixed after construction.
  std::vector<std::unique_ptr<LocalNode>> locals_;

  // Composition → global node index (most recent server / gossiped
  // residency).
  mutable std::mutex affinity_mu_;
  std::unordered_map<std::string, int> affinity_;

  // Router-side policy state.
  mutable std::mutex policy_mu_;
  dpolicy::RetryPolicy remote_retry_;
  dpolicy::MembershipPolicy membership_;

  // Re-route + gossip counters.
  std::atomic<uint64_t> reroutes_shed_{0};
  std::atomic<uint64_t> reroutes_peer_lost_{0};
  std::atomic<uint64_t> reroute_denied_{0};
  std::atomic<uint64_t> no_eligible_node_{0};
  std::atomic<uint64_t> gossip_rounds_{0};

  std::mutex gossip_mu_;
  bool gossip_open_ = false;                           // Guarded by gossip_mu_.
  std::vector<std::function<void()>> gossip_waiters_;  // Guarded by gossip_mu_.

  // Null when gossip_interval_us is 0; closed by Shutdown.
  std::unique_ptr<dbase::EventLoop::Scope> gossip_tick_;

  std::atomic<bool> shut_down_{false};
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_CLUSTER_H_
