// NodeAgent: binds a Platform to the dnet wire (ROADMAP "Distributed data
// plane"). It embeds a dnet::NodeServer in the engine process and plugs
// the three wire duties into the runtime:
//
//   invoke  → per-class admission check (shed with kUnavailable+shed flag
//             at the caps, exactly like the HTTP frontend's 429), then
//             Platform::Submit with the deadline reconstructed from the
//             wire's relative remaining time;
//   cancel  → InvocationHandle::Cancel via an inflight table keyed by the
//             server's per-invoke key, not the wire id two routers may
//             share (also driven by the server's cancel-on-disconnect);
//   gossip  → the node's in-flight count, admission cap and queued engine
//             tasks (the router's load and membership input).
//
// All three run inline on the process reactor the server is registered on:
// Submit only queues work for the engines.
#ifndef SRC_RUNTIME_NODE_AGENT_H_
#define SRC_RUNTIME_NODE_AGENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/base/status.h"
#include "src/net/node_server.h"
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
  uint64_t invocations_served() const { return served_.load(std::memory_order_relaxed); }
  uint64_t invocations_shed() const { return shed_.load(std::memory_order_relaxed); }

  // The gossip snapshot; also callable directly by tests.
  dnet::WireNodeStatus BuildStatus();

 private:
  void HandleInvoke(uint64_t key, dnet::WireInvoke invoke, dnet::NodeServer::OutcomeFn done);
  void HandleCancel(uint64_t key);

  Platform* const platform_;
  NodeAgentConfig config_;
  dnet::NodeServer server_;
  std::atomic<bool> running_{false};

  // Admission gauges (the wire-side analogue of the frontend's
  // InvokeCounters).
  std::atomic<int64_t> inflight_[kNumPriorityClasses] = {};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> shed_{0};

  // Accepted invocations whose completion has not fired yet. Completions
  // touch this object, so Stop() drains to zero before returning —
  // otherwise a late engine completion would re-enter a destroyed agent.
  std::atomic<int64_t> outstanding_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Cancel currency: the server's invoke key → handle, from accept until
  // completion (cancels and the submit both run on the reactor; the lock
  // orders them against completions on engine threads). The handle stays
  // empty until Submit returns.
  std::mutex inflight_mu_;
  std::map<uint64_t, InvocationHandle> inflight_handles_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_NODE_AGENT_H_
