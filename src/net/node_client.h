// NodeClient: the router/frontend side of the dnet wire. A pooled
// connection per peer lives on the process reactor
// (dbase::EventLoop::Process()), registered through the client's scope.
// Like FrameSocket, the client is reactor-only apart from Start and Stop:
// its owner calls it from reactor callbacks (or through its own scope's
// Run), and every reply comes back as a callback on the reactor, so
// nothing blocks on a peer and the client takes no lock.
// A connection is opened (and joined) when a peer is added, and re-opened
// lazily on the first use after it was lost, each time with a non-blocking
// connect (dnet::ConnectLoopback): frames queue in its FrameSocket until
// the handshake completes, so the reactor never waits on a peer. A refused
// connect, a handshake still incomplete after 2 s (a reactor timer), and a
// dead connection all fail the same way: every request pending on it
// completes with kUnavailable ("peer lost") so the layer above (Cluster)
// can map it to the retry-eligible FailureKind and re-route.
//
// Each peer's wire counters live in one PeerCounters object: the peer's
// FrameSocket adds its bytes, the client its invokes, sheds and the
// invokes it lost with the peer (gossip probes are not counted there).
#ifndef SRC_NET_NODE_CLIENT_H_
#define SRC_NET_NODE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/status.h"
#include "src/net/frame_socket.h"
#include "src/net/wire.h"

namespace dnet {

class NodeClient {
 public:
  using OutcomeCallback = std::function<void(dbase::Result<WireOutcome>)>;
  using GossipCallback = std::function<void(dbase::Result<WireNodeStatus>)>;

  // `node_name` introduces this client in its kJoin hello.
  explicit NodeClient(std::string node_name);
  ~NodeClient();

  // Thread-safe. Stop fails every pending request with "peer lost" and
  // returns once nothing of the client runs on the reactor any more.
  dbase::Status Start();
  void Stop();

  // Peer table. Adding a peer starts its connect and kJoin; adding an
  // existing name updates its port and drops any stale connection. A
  // removed peer's counters go with it; a re-added one keeps its own.
  void AddPeer(const std::string& name, uint16_t port);
  void RemovePeer(const std::string& name);
  // The peer's live counters; null for a name never added (or removed).
  const PeerCounters* counters(const std::string& peer) const;

  // Sends one invoke; the callback fires exactly once: the decoded
  // outcome, kUnavailable "peer lost ..." when the connection dies first
  // (inline, when the connect is refused on the spot), or
  // kDeadlineExceeded when timeout_us elapses (a kCancel chases the
  // invoke). timeout_us <= 0 means no client-side timer. Returns the
  // request id Cancel() names this invoke by (0 when the client is not
  // running, with the callback already run); ids only grow.
  uint64_t InvokeAsync(const std::string& peer, WireInvoke invoke, dbase::Micros timeout_us,
                       OutcomeCallback callback);

  // Requests a status snapshot from the peer. The callback fires exactly
  // once (inline when the client is not running or the connect is
  // refused): the decoded status, kUnavailable when the peer is lost, or
  // kDeadlineExceeded after timeout_us.
  void GossipAsync(const std::string& peer, dbase::Micros timeout_us, GossipCallback callback);

  // Fire-and-forget kCancel for the invoke InvokeAsync returned
  // `request_id` for. The peer cancels the invocation and still answers it
  // (kCancelled); an id it no longer serves is ignored. A no-op once the
  // client has stopped.
  void Cancel(const std::string& peer, uint64_t request_id);

  NodeClient(const NodeClient&) = delete;
  NodeClient& operator=(const NodeClient&) = delete;

 private:
  struct Pending {
    FrameType expect;  // kOutcome or kGossip.
    std::string peer;
    OutcomeCallback on_outcome;            // expect == kOutcome.
    GossipCallback on_gossip;              // expect == kGossip.
    dbase::EventLoop::TimerId timer = 0;  // 0 = none.

    // Fires whichever callback is set with `status`.
    void Fail(const dbase::Status& status);
  };

  struct Peer {
    uint16_t port = 0;
    std::shared_ptr<FrameSocket> socket;  // Null until connected.
    // Shared with every connection to this peer.
    std::shared_ptr<PeerCounters> counters = std::make_shared<PeerCounters>();
  };

  // Starts a connect if needed; null when it was refused on the spot.
  FrameSocket* EnsureConnected(const std::string& peer);
  // Central send: connects, registers the pending entry under
  // `request_id`, arms the timeout, ships the frame.
  void SendRequest(const std::string& peer, FrameType type, uint64_t request_id,
                   std::vector<dbase::BufferSlice> body, dbase::Micros timeout_us,
                   Pending pending);
  void OnFrame(const std::string& peer, const FrameHeader& header, dbase::BufferSlice body);
  void OnPeerClosed(const std::string& peer, const dbase::Status& reason);
  void FailPending(uint64_t request_id, const dbase::Status& status);

  const std::string node_name_;
  std::unique_ptr<dbase::EventLoop::Scope> scope_;  // One per Start().
  std::atomic<bool> running_{false};

  // Reactor-only. Stop closes the peers' sockets but keeps their counters.
  std::map<std::string, Peer> peers_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_request_id_ = 1;
};

}  // namespace dnet

#endif  // SRC_NET_NODE_CLIENT_H_
