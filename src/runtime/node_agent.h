// NodeAgent: binds a Platform to the dnet wire (ROADMAP "Distributed data
// plane"). It embeds a dnet::NodeServer in the engine process and plugs
// the wire duties into the runtime:
//
//   invoke  → the node's Ingress (shed with kUnavailable + the shed flag at
//             the per-class caps, exactly like the HTTP frontend's 429),
//             then Platform::Submit with the deadline reconstructed from
//             the wire's relative remaining time; the CancelFn handed back
//             to the server cancels the submitted invocation (a kCancel
//             frame, or the owing connection's death);
//   gossip  → the node's in-flight count, admission cap and queued engine
//             tasks (the router's load and membership input).
//
// Both run inline on the process reactor: Submit only queues work for the
// engines, and the completion runs there too, possibly inside Submit. A
// completion never touches the agent, so Stop() only stops the server,
// whose closing connections cancel every invoke still owed an answer, and
// does not wait for them.
#ifndef SRC_RUNTIME_NODE_AGENT_H_
#define SRC_RUNTIME_NODE_AGENT_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/net/node_server.h"
#include "src/runtime/ingress.h"
#include "src/runtime/platform.h"

namespace dandelion {

struct NodeAgentConfig {
  std::string node_name = "node";
  // 0 picks an ephemeral port; the bound port is readable via port().
  uint16_t port = 0;
  // An already-bound listener for the server to adopt instead of binding
  // `port` (dnet::NodeServer::Config::listen_fd); -1 binds.
  int listen_fd = -1;
  // Per-class admission caps, same semantics as the HTTP frontend's:
  // arriving work beyond the cap is shed immediately (kUnavailable with
  // the shed frame flag) instead of queueing blindly. 0 = uncapped.
  size_t max_inflight_interactive = 256;
  size_t max_inflight_batch = 256;
  dnet::FrameLimits limits{};
};

class NodeAgent {
 public:
  NodeAgent(Platform* platform, NodeAgentConfig config);
  ~NodeAgent();

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  dbase::Status Start();
  void Stop();

  uint16_t port() const { return server_.port(); }
  const std::string& node_name() const { return config_.node_name; }
  const dnet::NodeServer& server() const { return server_; }

  // Counters for statz/tests (thread-safe).
  uint64_t invocations_served() const { return ingress_stats().served; }
  uint64_t invocations_shed() const { return ingress_stats().shed; }

  // The gossip snapshot; also callable directly by tests.
  dnet::WireNodeStatus BuildStatus();

 private:
  dnet::NodeServer::CancelFn HandleInvoke(dnet::WireInvoke invoke,
                                          dnet::NodeServer::OutcomeFn done);

  // The ingress counters, read on the reactor through scope_.
  Ingress::Stats ingress_stats() const;

  Platform* const platform_;
  NodeAgentConfig config_;
  mutable dbase::EventLoop::Scope scope_{dbase::EventLoop::Process()};
  Ingress ingress_;
  dnet::NodeServer server_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_NODE_AGENT_H_
