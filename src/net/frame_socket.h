// FrameSocket: one connected TCP peer speaking the dnet frame protocol,
// registered on a dbase::EventLoop. The read side is a header-then-body
// state machine that adopts each body straight into a refcounted
// dbase::Buffer, so frame handlers (and the aliasing UnmarshalSets under
// them) view the receive bytes without copying. The write side is a
// SendQueue (src/net/socket.h): MarshalSetsScatter chunks go from their
// original backing buffers to the kernel with no intermediate assembly, a
// vanished peer is an error return, not a SIGPIPE, and frames sent while a
// connect is still in flight wait in the queue until it completes.
//
// Threading: all methods are loop-thread-only unless noted, as are its
// owners (NodeClient, NodeServer): cross-thread callers post through the
// owner's scope. Lifetime is shared_ptr-managed: callbacks pin the socket
// for the duration of a dispatch, so an on_close handler may drop the
// owner's last reference mid-callback safely.
#ifndef SRC_NET_FRAME_SOCKET_H_
#define SRC_NET_FRAME_SOCKET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/event_loop.h"
#include "src/base/status.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace dnet {

// Per-peer wire counters, shared by the peer's FrameSocket (bytes, header
// and body, both directions) and its owner (requests). Loop-thread-only,
// like the socket.
struct PeerCounters {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t invokes_sent = 0;
  uint64_t sheds_received = 0;
  uint64_t peer_lost_failures = 0;
};

class FrameSocket : public std::enable_shared_from_this<FrameSocket> {
 public:
  // Called on the loop thread for every complete, well-formed frame. The
  // body slice aliases the receive buffer; holding it (or payloads
  // unmarshalled from it) keeps the buffer alive.
  using FrameHandler = std::function<void(const FrameHeader&, dbase::BufferSlice body)>;
  // Called exactly once when the connection dies: clean peer EOF (kOk),
  // socket error (kUnavailable), or a protocol violation
  // (kInvalidArgument). The fd is already closed when this runs.
  using CloseHandler = std::function<void(const dbase::Status& reason)>;

  // Adopts a connected (or still connecting) non-blocking `fd` and
  // registers it through the owner's `scope`, which must outlive the
  // socket's open life (owners Close() their sockets before their scope).
  // The socket adds its bytes into `counters`, which must not be null.
  // Loop-thread-only. On registration failure the fd is closed and the
  // error returned.
  static dbase::Result<std::shared_ptr<FrameSocket>> Adopt(
      dbase::EventLoop::Scope* scope, int fd, FrameLimits limits,
      std::shared_ptr<PeerCounters> counters, FrameHandler on_frame, CloseHandler on_close);
  ~FrameSocket();

  // Queues one frame: the header (body_len is computed from the chunks)
  // followed by the body chunks, then flushes as much as the socket
  // accepts. Loop-thread-only. Frames queued after close are dropped.
  void SendFrame(FrameType type, uint16_t flags, uint64_t request_id,
                 std::vector<dbase::BufferSlice> body);
  // Convenience for small owned bodies (join, gossip, cancel).
  void SendFrame(FrameType type, uint16_t flags, uint64_t request_id, std::string body);

  // Tears the connection down (idempotent): deregisters, closes the fd,
  // and fires on_close with `reason`. Loop-thread-only.
  void Close(const dbase::Status& reason);

  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }

  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

 private:
  FrameSocket(dbase::EventLoop::Scope* scope, int fd, FrameLimits limits,
              std::shared_ptr<PeerCounters> counters, FrameHandler on_frame,
              CloseHandler on_close);

  void OnEvent(uint32_t events);
  // Reads until EAGAIN (or the per-wake budget), advancing the
  // header/body state machine and dispatching complete frames.
  void OnReadable();
  // Sends the queue until EAGAIN or empty; adjusts EPOLLOUT.
  void FlushWrites();
  void UpdateInterest();

  dbase::EventLoop::Scope* const scope_;
  int fd_;
  const FrameLimits limits_;
  const std::shared_ptr<PeerCounters> counters_;
  const FrameHandler on_frame_;
  CloseHandler on_close_;  // Cleared after firing (fire exactly once).

  // Read state machine: fill header_, decode, then fill body_ (sized to
  // body_len up front — the limit check already ran) and dispatch.
  std::string header_;         // Partial header bytes (< kFrameHeaderBytes).
  bool reading_body_ = false;
  FrameHeader pending_;        // Decoded header while its body streams in.
  std::string body_;           // Sized to body_len; adopted into a Buffer when full.
  size_t body_filled_ = 0;     // Bytes of body_ read so far.

  SendQueue send_queue_;
  uint32_t armed_events_ = 0;
};

}  // namespace dnet

#endif  // SRC_NET_FRAME_SOCKET_H_
