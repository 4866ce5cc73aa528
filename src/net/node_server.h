// NodeServer: the dnet wire endpoint embedded in every engine process. It
// registers on the process reactor (dbase::EventLoop::Process()) through
// its own scope, accepts peer connections, speaks the frame protocol, and
// hands decoded requests to type-erased handlers — the runtime layer above
// (NodeAgent) plugs in Platform::Submit without dnet depending on runtime
// headers. Handlers run inline on the reactor, so they must not block.
//
// Transport duties the server keeps for itself:
//  - join bookkeeping (peer names for diagnostics),
//  - request/reply correlation (outcome frames carry the invoke's id),
//  - cancels: each connection maps the request id of every invoke still
//    owed an answer to the CancelFn its handler returned; a kCancel frame
//    runs it, and so does the connection's death, so a crashed router
//    cannot leak in-flight work,
//  - protocol hygiene: any malformed frame kills its connection
//    (kInvalidArgument) — hostile bytes never reach a handler.
#ifndef SRC_NET_NODE_SERVER_H_
#define SRC_NET_NODE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/base/event_loop.h"
#include "src/base/status.h"
#include "src/net/frame_socket.h"
#include "src/net/wire.h"

namespace dnet {

class NodeServer {
 public:
  struct Config {
    // 0 picks an ephemeral port; read the result from port() after Start.
    uint16_t port = 0;
    // A listening, non-blocking socket (ListenLoopback's result) for Start()
    // to adopt instead of binding `port`; -1 binds. The server owns it: Stop()
    // closes it, and so does the destructor if Start() never ran.
    int listen_fd = -1;
    std::string node_name = "node";
    FrameLimits limits;
  };

  // Completes one invocation: called on the reactor, possibly inline
  // inside the InvokeHandler, at most once. The outcome's `shed` field
  // becomes the kFlagShed frame flag.
  using OutcomeFn = std::function<void(WireOutcome outcome)>;
  // Stops one invocation; runs on the reactor, at most once, and only
  // while its outcome is still owed.
  using CancelFn = std::function<void()>;
  // Receives a decoded invoke plus its completion and returns how to
  // cancel it (null: nothing to cancel). Runs on the reactor — hand the
  // work to the engines (Submit never blocks) and call `done` on the
  // reactor when it finishes, possibly inline before returning, even after
  // Stop(). A `done` called inline leaves nothing owed, so its CancelFn
  // never runs.
  using InvokeHandler = std::function<CancelFn(WireInvoke invoke, OutcomeFn done)>;
  // Snapshot for kGossipReq. Runs on the reactor; must be cheap.
  using StatusProvider = std::function<WireNodeStatus()>;

  explicit NodeServer(Config config);
  ~NodeServer();

  // All handlers must be set before Start().
  void set_invoke_handler(InvokeHandler handler) { on_invoke_ = std::move(handler); }
  void set_status_provider(StatusProvider provider) { status_provider_ = std::move(provider); }

  // Binds (or adopts Config::listen_fd) and begins accepting on the
  // reactor.
  dbase::Status Start();
  // Stops accepting and closes every connection, which runs the CancelFn
  // of each invocation still owed an answer. When it returns no handler
  // runs again, and late `done` calls are dropped.
  void Stop();

  uint16_t port() const { return port_; }
  const std::string& node_name() const { return config_.node_name; }

  // Malformed-frame closes (thread-safe). The server counts nothing else:
  // wire bytes are counted on the client side, per peer, in PeerCounters.
  uint64_t protocol_errors() const { return protocol_errors_.load(std::memory_order_relaxed); }

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

 private:
  struct Peer {
    std::shared_ptr<FrameSocket> socket;
    std::string name;  // From kJoin; empty until then.
    // Invocations owed to this connection: request_id → how to cancel it.
    // Entries leave when the outcome is sent.
    std::map<uint64_t, CancelFn> inflight;
  };

  void OnAcceptable();
  void OnFrame(int fd, const FrameHeader& header, dbase::BufferSlice body);
  void OnPeerClosed(int fd, const dbase::Status& reason);
  // Protocol violation: count it, kill the connection.
  void Drop(int fd, dbase::Status reason);

  void HandleInvoke(int fd, const FrameHeader& header, const dbase::BufferSlice& body);

  Config config_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  // One per Start(); shared with outcome completions, which may fire after
  // Stop() and then find it closed.
  std::shared_ptr<dbase::EventLoop::Scope> scope_;
  std::atomic<bool> running_{false};

  InvokeHandler on_invoke_;
  StatusProvider status_provider_;

  // Reactor-only.
  std::map<int, Peer> peers_;

  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace dnet

#endif  // SRC_NET_NODE_SERVER_H_
