#include "src/net/node_server.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"

namespace dnet {

NodeServer::NodeServer(Config config) : config_(std::move(config)) {}

NodeServer::~NodeServer() {
  Stop();
  if (config_.listen_fd >= 0) {
    close(config_.listen_fd);
  }
}

dbase::Status NodeServer::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return dbase::FailedPrecondition("NodeServer already started");
  }
  if (config_.listen_fd >= 0) {
    // Connections that arrived before this point wait in its backlog.
    listen_fd_ = std::exchange(config_.listen_fd, -1);
  } else {
    ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(config_.port, 128));
  }
  auto port = BoundPort(listen_fd_);
  if (!port.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  scope_ = std::make_shared<dbase::EventLoop::Scope>(dbase::EventLoop::Process());
  running_.store(true, std::memory_order_relaxed);
  // Registered on the reactor's turn; connections arriving until then wait
  // in the backlog.
  scope_->Post([this] {
    const dbase::Status added =
        scope_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
    if (!added.ok()) {
      DLOG(Error) << config_.node_name << " cannot accept: " << added.ToString();
    }
  });
  return dbase::OkStatus();
}

void NodeServer::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  // Tear peers down on the reactor, where CancelFns always run; closing
  // each socket cancels its invocations and erases its peer.
  scope_->Close([this] {
    std::vector<std::shared_ptr<FrameSocket>> sockets;
    sockets.reserve(peers_.size());
    for (const auto& [fd, peer] : peers_) {
      sockets.push_back(peer.socket);
    }
    for (const auto& socket : sockets) {
      socket->Close(dbase::Unavailable("server stopping"));
    }
  });
  close(listen_fd_);
  listen_fd_ = -1;
}

void NodeServer::OnAcceptable() {
  AcceptAll(scope_.get(), listen_fd_, [this](int fd) {
    // Wire bytes are counted router-side, per peer; these go unread.
    auto socket = FrameSocket::Adopt(
        scope_.get(), fd, config_.limits, std::make_shared<PeerCounters>(),
        [this, fd](const FrameHeader& header, dbase::BufferSlice body) {
          OnFrame(fd, header, std::move(body));
        },
        [this, fd](const dbase::Status& reason) { OnPeerClosed(fd, reason); });
    if (socket.ok()) {  // Otherwise Adopt closed the fd.
      peers_[fd].socket = std::move(socket).value();
    }
  });
}

void NodeServer::Drop(int fd, dbase::Status reason) {
  auto it = peers_.find(fd);
  if (it != peers_.end() && it->second.socket != nullptr) {
    // Close routes the reason through OnPeerClosed, which does the
    // protocol-error bookkeeping — counting here as well would double.
    it->second.socket->Close(reason);
  }
}

void NodeServer::OnPeerClosed(int fd, const dbase::Status& reason) {
  // Every malformed-bytes close lands here — whether the socket layer
  // rejected the header or a handler Drop()ed a bad body — so this is the
  // one place protocol errors are counted. A peer that merely vanished
  // (EOF, reset, shutdown) closes with a different code and is not one.
  if (reason.code() == dbase::StatusCode::kInvalidArgument) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  auto it = peers_.find(fd);
  if (it == peers_.end()) {
    return;
  }
  // Cancel work owed to the dead connection: its router is gone, nobody
  // will consume the results.
  for (const auto& [request_id, cancel] : it->second.inflight) {
    if (cancel != nullptr) {  // Null only while its handler runs.
      cancel();
    }
  }
  peers_.erase(it);
}

void NodeServer::OnFrame(int fd, const FrameHeader& header, dbase::BufferSlice body) {
  switch (header.type) {
    case FrameType::kJoin: {
      auto join = DecodeJoin(body);
      if (!join.ok()) {
        Drop(fd, join.status());
        return;
      }
      auto it = peers_.find(fd);
      if (it == peers_.end()) {
        return;
      }
      it->second.name = std::move(join->node_name);
      it->second.socket->SendFrame(FrameType::kJoinAck, 0, header.request_id,
                                   EncodeJoin(WireJoin{config_.node_name}));
      return;
    }
    case FrameType::kLeave: {
      auto it = peers_.find(fd);
      if (it != peers_.end() && it->second.socket != nullptr) {
        it->second.socket->Close(dbase::OkStatus());
      }
      return;
    }
    case FrameType::kInvoke:
      HandleInvoke(fd, header, body);
      return;
    case FrameType::kCancel: {
      if (!body.empty()) {
        Drop(fd, dbase::InvalidArgument("cancel frame carries a body"));
        return;
      }
      auto it = peers_.find(fd);
      if (it == peers_.end()) {
        return;
      }
      auto inflight = it->second.inflight.find(header.request_id);
      if (inflight != it->second.inflight.end()) {
        inflight->second();
      }
      return;
    }
    case FrameType::kGossipReq: {
      if (!body.empty()) {
        Drop(fd, dbase::InvalidArgument("gossip request carries a body"));
        return;
      }
      auto it = peers_.find(fd);
      if (it == peers_.end() || status_provider_ == nullptr) {
        return;
      }
      it->second.socket->SendFrame(FrameType::kGossip, 0, header.request_id,
                                   EncodeNodeStatus(status_provider_()));
      return;
    }
    case FrameType::kJoinAck:
    case FrameType::kOutcome:
    case FrameType::kGossip:
      // Reply types are client-bound; a server receiving one is talking
      // to something confused or hostile.
      Drop(fd, dbase::InvalidArgument("reply frame sent to server"));
      return;
  }
  Drop(fd, dbase::InvalidArgument("unknown frame type"));
}

void NodeServer::HandleInvoke(int fd, const FrameHeader& header,
                              const dbase::BufferSlice& body) {
  auto invoke = DecodeInvoke(body);
  if (!invoke.ok()) {
    Drop(fd, invoke.status());
    return;
  }
  auto it = peers_.find(fd);
  if (it == peers_.end()) {
    return;
  }
  if (on_invoke_ == nullptr) {
    WireOutcome refused;
    refused.code = dbase::StatusCode::kUnavailable;
    refused.message = "node not serving";
    it->second.socket->SendFrame(FrameType::kOutcome, 0, header.request_id,
                                 EncodeOutcome(refused));
    return;
  }
  // The completion runs on the reactor, possibly inline before on_invoke_
  // returns, possibly after this connection (or the whole server) is gone:
  // it re-enters through the scope, which drops it once the server
  // stopped, and re-checks the peer map. The entry is made first, so an
  // outcome sent inline erases it and nothing is left owed.
  const uint64_t request_id = header.request_id;
  auto done = [this, scope = scope_, fd, request_id](WireOutcome outcome) {
    scope->Run([&] {
      auto peer = peers_.find(fd);
      if (peer == peers_.end() || peer->second.socket == nullptr ||
          peer->second.socket->closed()) {
        return;  // Connection died; cancel-on-disconnect already ran.
      }
      peer->second.inflight.erase(request_id);
      const uint16_t flags = outcome.shed ? kFlagShed : 0;
      peer->second.socket->SendFrame(FrameType::kOutcome, flags, request_id,
                                     EncodeOutcome(outcome));
    });
  };
  it->second.inflight.emplace(request_id, nullptr);
  CancelFn cancel = on_invoke_(std::move(invoke).value(), std::move(done));
  auto peer = peers_.find(fd);
  if (peer == peers_.end()) {
    return;
  }
  auto owed = peer->second.inflight.find(request_id);
  if (owed == peer->second.inflight.end()) {
    return;  // Answered inline.
  }
  if (cancel != nullptr) {
    owed->second = std::move(cancel);
  } else {
    peer->second.inflight.erase(owed);
  }
}

}  // namespace dnet
