#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "src/base/clock.h"

namespace dnet {
namespace {

constexpr size_t kMaxIov = 64;
constexpr dbase::Micros kAcceptMuteUs = 50 * dbase::kMicrosPerMilli;

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void SetNoDelay(int fd) {
  int nodelay = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
}

}  // namespace

dbase::Result<int> ListenLoopback(uint16_t port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return dbase::Unavailable("socket() failed");
  }
  int reuse = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  const sockaddr_in addr = LoopbackAddress(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return dbase::Unavailable("bind() failed (sandboxed environment?)");
  }
  if (listen(fd, backlog) != 0) {
    close(fd);
    return dbase::Unavailable("listen() failed");
  }
  return fd;
}

dbase::Result<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return dbase::Unavailable("getsockname() failed");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

dbase::Result<int> ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return dbase::Unavailable("socket() failed");
  }
  SetNoDelay(fd);
  const sockaddr_in addr = LoopbackAddress(port);
  // EINTR leaves the handshake running asynchronously, like EINPROGRESS.
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS && errno != EINTR) {
    const int err = errno;
    close(fd);
    return dbase::Unavailable("connect() failed: " + std::string(strerror(err)));
  }
  return fd;
}

bool HasPeer(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  return getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
}

void AcceptAll(dbase::EventLoop::Scope* scope, int listen_fd,
               const std::function<void(int fd)>& on_fd) {
  while (true) {
    const int fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      SetNoDelay(fd);
      on_fd(fd);
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;  // Backlog drained.
    }
    if (errno != EMFILE && errno != ENFILE) {
      // Transient per-connection failures (ECONNABORTED: the client reset
      // while queued; EPROTO, network errors): skip that connection and
      // keep accepting, per accept(2).
      continue;
    }
    (void)scope->Modify(listen_fd, 0);
    scope->AddTimer(kAcceptMuteUs, [scope, listen_fd] {
      (void)scope->Modify(listen_fd, EPOLLIN);
    });
    return;
  }
}

void SendQueue::Push(dbase::BufferSlice chunk) {
  if (chunk.empty()) {
    return;
  }
  pending_ += chunk.size();
  chunks_.push_back(std::move(chunk));
}

void SendQueue::Clear() {
  chunks_.clear();
  offset_ = 0;
  pending_ = 0;
}

dbase::Result<size_t> SendQueue::Flush(int fd) {
  size_t written = 0;
  while (!chunks_.empty()) {
    iovec iov[kMaxIov];
    size_t iov_count = 0;
    size_t skip = offset_;
    for (const dbase::BufferSlice& chunk : chunks_) {
      if (iov_count == kMaxIov) {
        break;
      }
      iov[iov_count].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iov_count].iov_len = chunk.size() - skip;
      ++iov_count;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      return dbase::Unavailable("sendmsg() failed: " + std::string(strerror(errno)));
    }
    written += static_cast<size_t>(n);
    pending_ -= static_cast<size_t>(n);
    size_t advanced = static_cast<size_t>(n);
    while (advanced > 0) {
      const size_t front_left = chunks_.front().size() - offset_;
      if (advanced < front_left) {
        offset_ += advanced;
        break;
      }
      advanced -= front_left;
      chunks_.pop_front();
      offset_ = 0;
    }
  }
  return written;
}

}  // namespace dnet
