// The socket layer: the one place in src/ that listens, accepts, connects
// and writes gathered chunk sequences. The HTTP frontend, NodeServer,
// NodeClient and FrameSocket all go through it, and none of it blocks: every
// socket runs non-blocking on the process reactor
// (dbase::EventLoop::Process()), where a stalled call would stall every
// connection in the process.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "src/base/buffer.h"
#include "src/base/event_loop.h"
#include "src/base/status.h"

namespace dnet {

// Per-wake read budget for a connection: a fast loopback sender must not
// monopolize the reactor. Level-triggered epoll re-fires for the remainder,
// interleaving other connections' events.
inline constexpr size_t kReadBudget = 256 * 1024;

// Creates a loopback TCP listener (SOCK_NONBLOCK | SOCK_CLOEXEC) on `port`
// (0 picks an ephemeral port). Returns the listening fd.
dbase::Result<int> ListenLoopback(uint16_t port, int backlog);

// The port a bound socket actually landed on.
dbase::Result<uint16_t> BoundPort(int fd);

// Starts a loopback connect and returns the non-blocking fd (TCP_NODELAY
// set) at once, usually while the handshake is still in flight: the fd
// turns writable when it completes and reports EPOLLERR when it is
// refused. Writes before then would block (a SendQueue keeps them). Fails
// when no socket can be made or the connect is refused on the spot.
dbase::Result<int> ConnectLoopback(uint16_t port);

// True once the socket has a connected peer, i.e. a handshake started by
// ConnectLoopback has completed.
bool HasPeer(int fd);

// Accepts every connection pending on the non-blocking `listen_fd`, which
// is registered through `scope` for EPOLLIN, and hands each accepted fd
// (non-blocking, close-on-exec, TCP_NODELAY) to `on_fd`, which owns it.
// Retries EINTR, stops at EAGAIN, and skips connections that died in the
// backlog. Out of descriptors (EMFILE/ENFILE), the pending connection stays
// queued and would re-fire the level-triggered listener forever, so the
// listener is muted for 50 ms and then re-armed. Reactor-only.
void AcceptAll(dbase::EventLoop::Scope* scope, int listen_fd,
               const std::function<void(int fd)>& on_fd);

// An ordered chunk sequence awaiting one socket, written with gathered
// sendmsg(MSG_NOSIGNAL): chunks go from their own backing buffers to the
// kernel without being concatenated, a partial write advances a cursor
// into the front chunk, and a vanished peer is an error, not a SIGPIPE.
class SendQueue {
 public:
  // Appends a chunk; empty chunks are dropped.
  void Push(dbase::BufferSlice chunk);
  // Unsent bytes across all chunks.
  size_t pending() const { return pending_; }
  void Clear();

  // Writes until the queue is empty or the socket would block, up to 64
  // chunks per sendmsg. Returns the bytes written (possibly 0), or
  // kUnavailable on a hard error (the peer is gone); pending() is exact
  // either way, so bytes written before the error are accounted there.
  dbase::Result<size_t> Flush(int fd);

 private:
  std::deque<dbase::BufferSlice> chunks_;
  size_t offset_ = 0;  // Bytes of chunks_.front() already written.
  size_t pending_ = 0;
};

}  // namespace dnet

#endif  // SRC_NET_SOCKET_H_
