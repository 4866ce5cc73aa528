#include "src/net/node_client.h"

#include <utility>

namespace dnet {
namespace {

constexpr dbase::Micros kDefaultRequestTimeout = 5 * dbase::kMicrosPerSecond;
constexpr dbase::Micros kConnectTimeoutUs = 2 * dbase::kMicrosPerSecond;

}  // namespace

void NodeClient::Pending::Fail(const dbase::Status& status) {
  if (on_outcome) {
    on_outcome(status);
  }
  if (on_gossip) {
    on_gossip(status);
  }
}

NodeClient::NodeClient(std::string node_name) : node_name_(std::move(node_name)) {}

NodeClient::~NodeClient() { Stop(); }

dbase::Status NodeClient::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return dbase::FailedPrecondition("NodeClient already started");
  }
  scope_ = std::make_unique<dbase::EventLoop::Scope>(dbase::EventLoop::Process());
  running_.store(true, std::memory_order_relaxed);
  return dbase::OkStatus();
}

void NodeClient::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  scope_->Close([this] {
    // Closing each socket fails its pending requests through
    // OnPeerClosed, so every pending callback fires with "peer lost".
    for (auto& [name, peer] : peers_) {
      if (peer.socket != nullptr && !peer.socket->closed()) {
        peer.socket->SendFrame(FrameType::kLeave, 0, 0, std::string());
        peer.socket->Close(dbase::Unavailable("client stopping"));
      }
      peer.socket.reset();
    }
    pending_.clear();
  });
}

void NodeClient::AddPeer(const std::string& name, uint16_t port) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  Peer& peer = peers_[name];
  if (peer.socket != nullptr && peer.port != port) {
    peer.socket->Close(dbase::Unavailable("peer re-addressed"));
  }
  peer.port = port;
  // Join now, so the connect and kJoin round trip overlap the caller's
  // own start-up instead of the first request. A peer that is not up
  // yet fails nothing: no request is pending on it.
  EnsureConnected(name);
}

void NodeClient::RemovePeer(const std::string& name) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  auto it = peers_.find(name);
  if (it == peers_.end()) {
    return;
  }
  if (it->second.socket != nullptr && !it->second.socket->closed()) {
    it->second.socket->SendFrame(FrameType::kLeave, 0, 0, std::string());
    it->second.socket->Close(dbase::Unavailable("peer removed"));
  }
  peers_.erase(name);
}

const PeerCounters* NodeClient::counters(const std::string& peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() ? it->second.counters.get() : nullptr;
}

FrameSocket* NodeClient::EnsureConnected(const std::string& name) {
  auto it = peers_.find(name);
  if (it == peers_.end()) {
    return nullptr;
  }
  Peer& peer = it->second;
  if (peer.socket != nullptr && !peer.socket->closed()) {
    return peer.socket.get();
  }
  peer.socket.reset();
  auto fd = ConnectLoopback(peer.port);
  if (!fd.ok()) {
    return nullptr;
  }
  auto socket = FrameSocket::Adopt(
      scope_.get(), *fd, FrameLimits{}, peer.counters,
      [this, name](const FrameHeader& header, dbase::BufferSlice body) {
        OnFrame(name, header, std::move(body));
      },
      [this, name](const dbase::Status& reason) { OnPeerClosed(name, reason); });
  if (!socket.ok()) {
    return nullptr;
  }
  peer.socket = std::move(socket).value();
  // The handshake is usually still in flight: frames queue in the socket
  // until it completes, and one that has not completed within
  // kConnectTimeoutUs closes the socket, failing its requests as peer lost.
  scope_->AddTimer(kConnectTimeoutUs, [weak = std::weak_ptr<FrameSocket>(peer.socket)] {
    auto connecting = weak.lock();
    if (connecting != nullptr && !connecting->closed() && !HasPeer(connecting->fd())) {
      connecting->Close(dbase::DeadlineExceeded("connect timed out"));
    }
  });
  // Hello; the ack needs no pending entry (request id 0 is never issued).
  peer.socket->SendFrame(FrameType::kJoin, 0, 0, EncodeJoin(WireJoin{node_name_}));
  return peer.socket.get();
}

void NodeClient::SendRequest(const std::string& name, FrameType type, uint64_t request_id,
                             std::vector<dbase::BufferSlice> body, dbase::Micros timeout_us,
                             Pending pending) {
  FrameSocket* socket = EnsureConnected(name);
  auto peer_it = peers_.find(name);
  if (socket == nullptr || peer_it == peers_.end()) {
    if (peer_it != peers_.end() && type == FrameType::kInvoke) {
      ++peer_it->second.counters->peer_lost_failures;
    }
    pending.Fail(dbase::Unavailable("peer lost: connect to '" + name + "' failed"));
    return;
  }
  if (timeout_us > 0) {
    const bool chase_cancel = type == FrameType::kInvoke;
    pending.timer = scope_->AddTimer(timeout_us, [this, request_id, name, chase_cancel] {
      auto it = pending_.find(request_id);
      if (it == pending_.end()) {
        return;
      }
      it->second.timer = 0;  // The timer already fired; nothing to cancel.
      if (chase_cancel) {
        auto peer = peers_.find(name);
        if (peer != peers_.end() && peer->second.socket != nullptr &&
            !peer->second.socket->closed()) {
          peer->second.socket->SendFrame(FrameType::kCancel, 0, request_id, std::string());
        }
      }
      FailPending(request_id, dbase::DeadlineExceeded("remote call timed out"));
    });
  }
  if (type == FrameType::kInvoke) {
    ++peer_it->second.counters->invokes_sent;
  }
  pending_.emplace(request_id, std::move(pending));
  socket->SendFrame(type, 0, request_id, std::move(body));
}

void NodeClient::FailPending(uint64_t request_id, const dbase::Status& status) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timer != 0) {
    scope_->CancelTimer(pending.timer);
  }
  pending.Fail(status);
}

void NodeClient::OnPeerClosed(const std::string& name, const dbase::Status& reason) {
  auto it = peers_.find(name);
  if (it != peers_.end()) {
    it->second.socket.reset();
  }
  // Everything pending on this peer dies as "peer lost" — the Cluster
  // maps this to the retry-eligible kPeerLost failure kind. Only invokes
  // count as lost: a gossip probe is no invocation.
  std::vector<uint64_t> doomed;
  uint64_t invokes = 0;
  for (const auto& [request_id, pending] : pending_) {
    if (pending.peer == name) {
      doomed.push_back(request_id);
      invokes += pending.expect == FrameType::kOutcome ? 1 : 0;
    }
  }
  if (it != peers_.end()) {
    it->second.counters->peer_lost_failures += invokes;
  }
  const dbase::Status lost =
      dbase::Unavailable("peer lost: '" + name + "' " +
                         (reason.ok() ? std::string("closed the connection") : reason.ToString()));
  for (uint64_t request_id : doomed) {
    FailPending(request_id, lost);
  }
}

void NodeClient::OnFrame(const std::string& name, const FrameHeader& header,
                         dbase::BufferSlice body) {
  if (header.type == FrameType::kJoinAck || header.type == FrameType::kLeave) {
    return;  // Informational.
  }
  auto it = pending_.find(header.request_id);
  if (it == pending_.end()) {
    return;  // Late reply after a timeout; the entry is gone.
  }
  if (header.type != it->second.expect) {
    auto peer = peers_.find(name);
    if (peer != peers_.end() && peer->second.socket != nullptr) {
      peer->second.socket->Close(
          dbase::InvalidArgument("reply frame type does not match request"));
    }
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timer != 0) {
    scope_->CancelTimer(pending.timer);
  }
  auto peer = peers_.find(name);
  if (pending.on_outcome) {
    auto outcome = DecodeOutcome(body);
    if (outcome.ok()) {
      outcome->shed = (header.flags & kFlagShed) != 0;
      if (outcome->shed && peer != peers_.end()) {
        ++peer->second.counters->sheds_received;
      }
    } else {
      // A peer sending garbage is as gone as a dead one.
      if (peer != peers_.end() && peer->second.socket != nullptr) {
        peer->second.socket->Close(outcome.status());
      }
    }
    pending.on_outcome(std::move(outcome));
    return;
  }
  pending.on_gossip(DecodeNodeStatus(body));
}

uint64_t NodeClient::InvokeAsync(const std::string& peer, WireInvoke invoke,
                                 dbase::Micros timeout_us, OutcomeCallback callback) {
  if (!running_.load(std::memory_order_relaxed)) {
    callback(dbase::FailedPrecondition("NodeClient not started"));
    return 0;
  }
  Pending pending;
  pending.expect = FrameType::kOutcome;
  pending.peer = peer;
  pending.on_outcome = std::move(callback);
  const uint64_t request_id = next_request_id_++;
  SendRequest(peer, FrameType::kInvoke, request_id, EncodeInvoke(invoke), timeout_us,
              std::move(pending));
  return request_id;
}

void NodeClient::GossipAsync(const std::string& peer, dbase::Micros timeout_us,
                             GossipCallback callback) {
  if (!running_.load(std::memory_order_relaxed)) {
    callback(dbase::FailedPrecondition("NodeClient not started"));
    return;
  }
  Pending pending;
  pending.expect = FrameType::kGossip;
  pending.peer = peer;
  pending.on_gossip = std::move(callback);
  SendRequest(peer, FrameType::kGossipReq, next_request_id_++, {},
              timeout_us > 0 ? timeout_us : kDefaultRequestTimeout, std::move(pending));
}

void NodeClient::Cancel(const std::string& peer, uint64_t request_id) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  auto it = peers_.find(peer);
  if (it != peers_.end() && it->second.socket != nullptr && !it->second.socket->closed()) {
    it->second.socket->SendFrame(FrameType::kCancel, 0, request_id, std::string());
  }
}

}  // namespace dnet
