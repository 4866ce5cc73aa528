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
// Placement is round-robin or least-loaded (LoadBalancePolicy). Node load
// is the gossiped in-flight count and engine backlog plus what the router
// itself has in flight toward the node. The router only routes
// invocations: comm functions reach their services through their own
// node's mesh, never through a peer.
//
// Cross-node shedding: a node that responds 429-style (kUnavailable with
// the shed frame flag) gets the invocation re-routed once to another node
// before the error surfaces. Transport failures map into the failure
// taxonomy as FailureKind::kPeerLost — retry-safe, because Dandelion
// functions are pure: the router marks the node suspect, so new traffic
// avoids it, and re-routes every invocation it held to a surviving node,
// up to a fixed per-class budget (1 interactive, 3 batch). Jail kills and
// other deterministic function failures, which the node reports in its
// outcome, surface unchanged. A routed invocation's stop hook sends
// kCancel for the attempt currently on the wire, whether a handle's
// Cancel() or a blocking Invoke's timeout stopped it.
// Node membership is policy-driven: periodic gossip rounds feed
// dpolicy::MembershipPolicy, which suspects stale peers, evicts dead ones
// and re-admits rejoiners. Nodes join and leave the fleet only by
// administration (AddRemoteNode, RemoveRemoteNode).
//
// Threading: the router's state (node slots, membership, counters, the
// round-robin cursor, the open gossip round and each routed invocation's
// current attempt) belongs to the process reactor, like the NodeClient
// and every socket under it, and takes no lock. It is touched only from
// reactor callbacks and the router's one EventLoop::Scope. Off-reactor
// callers reach it through that scope: InvokeAsync posts its first
// placement (on the reactor, as from the frontend, it places inline),
// and Stats, total_nodes, AddRemoteNode, RemoveRemoteNode and GossipNow
// run on the reactor and wait for it (Scope::Run). The scope closes in
// the destructor, so the router still answers after Shutdown().
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/net/node_client.h"
#include "src/policy/membership.h"
#include "src/runtime/platform.h"

namespace dandelion {

enum class LoadBalancePolicy {
  kRoundRobin,
  // Routes to the node with the fewest in-flight invocations + queued
  // engine tasks (router in-flight plus the gossiped backlog).
  kLeastLoaded,
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
    // Gossip cadence for node status + membership; 0 disables the
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
  // to refresh membership on demand; never from the reactor.
  void GossipNow();

  // The statz "cluster" section's source of truth.
  struct PeerStats {
    std::string name;
    bool remote = false;  // A spawned node rather than an in-process one.
    std::string_view state = "active";
    uint64_t served = 0;
    int64_t inflight = 0;  // Router-side in-flight toward this node.
    // Wire counters, read from the NodeClient's live PeerCounters.
    uint64_t invokes_sent = 0;
    uint64_t sheds_received = 0;
    uint64_t peer_lost_failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Age of the last gossip snapshot; -1 = never heard.
    int64_t gossip_age_us = -1;
    // From the peer's last gossiped status.
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
    uint64_t served = 0;
    int64_t inflight = 0;
    dnet::WireNodeStatus status;       // Last gossip snapshot.
    dbase::Micros last_gossip_us = 0;  // 0 = never heard.
    dpolicy::MemberState state = dpolicy::MemberState::kActive;
  };
  struct LocalNode;
  struct Routed;

  // Internal terminal callback: result, serving node index, total
  // placement attempts (so RoutedResult can report re-routes).
  using RoutedCallback =
      std::function<void(dbase::Result<dfunc::DataSetList>, int node, int attempts)>;

  InvocationHandle InvokeRouted(InvocationRequest request, RoutedCallback callback);

  // Reactor-only, as is everything below that handles slots or gossip.
  dbase::Status AddNode(const std::string& name, uint16_t port, bool remote);
  int PickNode(const InvocationRequest& request, const std::set<int>& exclude);
  double NodeLoad(const NodeSlot& slot) const;
  bool Eligible(int index, const std::set<int>& exclude, bool allow_suspect) const;
  void Dispatch(std::shared_ptr<Routed> routed, int attempts, std::set<int> tried,
                bool shed_rerouted);
  std::string NodeName(int index) const;
  NodeSlot* slot_at(int index) const;
  void ApplyMembership(const dpolicy::MembershipDecision& decision);

  // Gossip rounds. A round probes every slot asynchronously; the replies
  // land on the reactor, and the last one closes the round: membership
  // Tick, ApplyMembership, gossip_rounds_ += 1 (skipped when there are no
  // slots), then the waiters run. At most one round is open at a time;
  // `on_closed` (may be null) joins the open one.
  struct GossipRound;
  void StartGossipRound(std::function<void()> on_closed);
  void CloseGossipRound(const GossipRound& round);
  // The periodic round: a timer on scope_ that re-arms at the end of each
  // run, so the interval counts from the end of the previous start. It
  // stops at Shutdown().
  void ArmGossipTick();

  Config config_;
  dnet::NodeClient client_;
  std::atomic<uint64_t> next_invocation_id_{1};

  // The engines behind the in-process slots; fixed after construction.
  std::vector<std::unique_ptr<LocalNode>> locals_;

  // Reactor-only. slots_ is append-only; slots are heap-allocated so raw
  // pointers stay valid across growth.
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  dpolicy::MembershipPolicy membership_;
  uint64_t round_robin_ = 0;
  uint64_t reroutes_shed_ = 0;
  uint64_t reroutes_peer_lost_ = 0;
  uint64_t reroute_denied_ = 0;
  uint64_t no_eligible_node_ = 0;
  uint64_t gossip_rounds_ = 0;
  bool gossip_open_ = false;
  std::vector<std::function<void()>> gossip_waiters_;

  std::atomic<bool> shut_down_{false};
  // The router's registrations on the reactor: the gossip tick and the
  // closures off-reactor callers post. Shared so a routed invocation's
  // stop hook can hold it weakly: a handle that outlives the Cluster
  // cancels nothing.
  const std::shared_ptr<dbase::EventLoop::Scope> scope_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_CLUSTER_H_
