#include "src/net/frame_socket.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/base/clock.h"

namespace dnet {
namespace {

// Per-wake read budget, mirroring the HTTP frontend's: a fast loopback
// sender must not monopolize the loop thread — level-triggered epoll
// re-fires for the remainder.
constexpr size_t kReadBudget = 256 * 1024;
constexpr int kMaxIov = 64;

}  // namespace

dbase::Result<std::shared_ptr<FrameSocket>> FrameSocket::Adopt(
    dbase::EventLoop::Scope* scope, int fd, FrameLimits limits,
    std::shared_ptr<PeerCounters> counters, FrameHandler on_frame, CloseHandler on_close) {
  int nodelay = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  std::shared_ptr<FrameSocket> sock(new FrameSocket(scope, fd, limits, std::move(counters),
                                                    std::move(on_frame), std::move(on_close)));
  std::weak_ptr<FrameSocket> weak = sock;
  const dbase::Status added = scope->Add(fd, EPOLLIN, [weak](uint32_t events) {
    // Pin across dispatch: Close() inside OnEvent may drop the owner's
    // last reference while frames below it are still being handled.
    if (auto self = weak.lock()) {
      self->OnEvent(events);
    }
  });
  if (!added.ok()) {
    close(fd);
    sock->fd_ = -1;
    sock->on_close_ = nullptr;
    return added;
  }
  sock->armed_events_ = EPOLLIN;
  return sock;
}

FrameSocket::FrameSocket(dbase::EventLoop::Scope* scope, int fd, FrameLimits limits,
                         std::shared_ptr<PeerCounters> counters, FrameHandler on_frame,
                         CloseHandler on_close)
    : scope_(scope),
      fd_(fd),
      limits_(limits),
      counters_(std::move(counters)),
      on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)) {
  header_.reserve(kFrameHeaderBytes);
}

FrameSocket::~FrameSocket() {
  if (fd_ >= 0) {
    // Owner dropped us without Close() (loop teardown): release the fd
    // without firing callbacks into a half-destroyed owner.
    scope_->Remove(fd_);
    close(fd_);
    fd_ = -1;
  }
}

void FrameSocket::SendFrame(FrameType type, uint16_t flags, uint64_t request_id,
                            std::vector<dbase::BufferSlice> body) {
  if (fd_ < 0) {
    return;
  }
  uint64_t body_len = 0;
  for (const auto& chunk : body) {
    body_len += chunk.size();
  }
  if (body_len > limits_.max_body_bytes) {
    Close(dbase::InvalidArgument("outbound frame body exceeds limit"));
    return;
  }
  FrameHeader header;
  header.type = type;
  header.flags = flags;
  header.body_len = static_cast<uint32_t>(body_len);
  header.request_id = request_id;
  send_queue_.push_back(
      dbase::BufferSlice(dbase::Buffer::FromString(EncodeFrameHeader(header))));
  for (auto& chunk : body) {
    if (!chunk.empty()) {
      send_queue_.push_back(std::move(chunk));
    }
  }
  FlushWrites();
}

void FrameSocket::SendFrame(FrameType type, uint16_t flags, uint64_t request_id,
                            std::string body) {
  std::vector<dbase::BufferSlice> chunks;
  if (!body.empty()) {
    chunks.push_back(dbase::BufferSlice(dbase::Buffer::FromString(std::move(body))));
  }
  SendFrame(type, flags, request_id, std::move(chunks));
}

void FrameSocket::Close(const dbase::Status& reason) {
  if (fd_ < 0) {
    return;
  }
  scope_->Remove(fd_);
  close(fd_);
  fd_ = -1;
  send_queue_.clear();
  send_offset_ = 0;
  if (on_close_) {
    // Move out first: the handler may drop the last owning reference.
    CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler(reason);
  }
}

void FrameSocket::OnEvent(uint32_t events) {
  auto self = shared_from_this();  // Survive a Close() from our own handlers.
  if (fd_ < 0) {
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    // Drain whatever the peer managed to send before the hangup, then
    // close — EPOLLHUP and readable bytes arrive together on loopback.
    OnReadable();
    if (fd_ >= 0) {
      Close(dbase::Unavailable("peer hung up"));
    }
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushWrites();
  }
  if (fd_ >= 0 && (events & EPOLLIN) != 0) {
    OnReadable();
  }
}

void FrameSocket::OnReadable() {
  size_t budget = kReadBudget;
  while (fd_ >= 0 && budget > 0) {
    if (!reading_body_) {
      // Accumulate the fixed header.
      char scratch[kFrameHeaderBytes];
      const size_t want = kFrameHeaderBytes - header_.size();
      const ssize_t n = read(fd_, scratch, want);
      if (n == 0) {
        // A hangup mid-header is the peer vanishing, not malformed bytes:
        // kAborted, so the server does not book it as a protocol error.
        Close(header_.empty() ? dbase::OkStatus()
                              : dbase::Aborted("eof inside frame header"));
        return;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        Close(dbase::Unavailable("read() failed"));
        return;
      }
      counters_->bytes_received.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      budget -= static_cast<size_t>(n) < budget ? static_cast<size_t>(n) : budget;
      header_.append(scratch, static_cast<size_t>(n));
      if (header_.size() >= 4) {
        // Check the magic as soon as it is readable: an HTTP client (or
        // plain garbage) is cut off immediately instead of being granted
        // a wait for 24 header bytes that may never arrive.
        const auto u8 = [this](size_t i) { return static_cast<uint8_t>(header_[i]); };
        const uint32_t magic = static_cast<uint32_t>(u8(0)) | (static_cast<uint32_t>(u8(1)) << 8) |
                               (static_cast<uint32_t>(u8(2)) << 16) |
                               (static_cast<uint32_t>(u8(3)) << 24);
        if (magic != kWireMagic) {
          Close(dbase::InvalidArgument("bad frame magic"));
          return;
        }
      }
      if (header_.size() < kFrameHeaderBytes) {
        continue;
      }
      auto decoded = DecodeFrameHeader(header_, limits_);
      if (!decoded.ok()) {
        Close(decoded.status());
        return;
      }
      pending_ = std::move(decoded).value();
      header_.clear();
      if (pending_.body_len == 0) {
        on_frame_(pending_, dbase::BufferSlice());
        continue;
      }
      reading_body_ = true;
      body_.clear();
      // Pre-size once: the limit check already bounded body_len, so a
      // hostile length cannot force an unbounded allocation.
      body_.reserve(pending_.body_len);
      continue;
    }
    // Stream the body directly into its final storage; when complete the
    // string is adopted (moved, not copied) into a refcounted Buffer.
    const size_t want = pending_.body_len - body_.size();
    const size_t old_size = body_.size();
    body_.resize(old_size + want);
    const ssize_t n = read(fd_, body_.data() + old_size, want);
    if (n == 0) {
      Close(dbase::Aborted("eof inside frame body"));
      return;
    }
    if (n < 0) {
      body_.resize(old_size);
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      Close(dbase::Unavailable("read() failed"));
      return;
    }
    body_.resize(old_size + static_cast<size_t>(n));
    counters_->bytes_received.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    budget -= static_cast<size_t>(n) < budget ? static_cast<size_t>(n) : budget;
    if (body_.size() < pending_.body_len) {
      continue;
    }
    reading_body_ = false;
    dbase::BufferSlice body(dbase::Buffer::FromString(std::move(body_)));
    body_ = std::string();
    on_frame_(pending_, std::move(body));
  }
}

void FrameSocket::FlushWrites() {
  while (fd_ >= 0 && !send_queue_.empty()) {
    iovec iov[kMaxIov];
    int iov_count = 0;
    size_t skip = send_offset_;
    for (const auto& chunk : send_queue_) {
      if (iov_count == kMaxIov) {
        break;
      }
      iov[iov_count].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iov_count].iov_len = chunk.size() - skip;
      ++iov_count;
      skip = 0;
    }
    // MSG_NOSIGNAL: a peer that already hung up surfaces as EPIPE and a
    // kUnavailable close, never as a process-killing SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    const ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      Close(dbase::Unavailable("sendmsg() failed"));
      return;
    }
    counters_->bytes_sent.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    size_t remaining = static_cast<size_t>(n);
    while (remaining > 0 && !send_queue_.empty()) {
      const size_t front_left = send_queue_.front().size() - send_offset_;
      if (remaining >= front_left) {
        remaining -= front_left;
        send_queue_.pop_front();
        send_offset_ = 0;
      } else {
        send_offset_ += remaining;
        remaining = 0;
      }
    }
  }
  UpdateInterest();
}

void FrameSocket::UpdateInterest() {
  if (fd_ < 0) {
    return;
  }
  const uint32_t want =
      EPOLLIN | (send_queue_.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  if (want == armed_events_) {
    return;
  }
  if (!scope_->Modify(fd_, want).ok()) {
    Close(dbase::Unavailable("epoll_ctl(MOD) failed"));
    return;
  }
  armed_events_ = want;
}

// --------------------------------------------------------- socket helpers

dbase::Result<int> ListenLoopback(uint16_t port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return dbase::Unavailable("socket() failed");
  }
  int reuse = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
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

dbase::Result<int> ConnectLoopback(uint16_t port, dbase::Micros timeout_us) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return dbase::Unavailable("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (true) {
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno != EINPROGRESS) {
      close(fd);
      return dbase::Unavailable("connect() failed");
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        timeout_us <= 0 ? -1 : static_cast<int>(timeout_us / dbase::kMicrosPerMilli);
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      close(fd);
      return dbase::DeadlineExceeded("connect timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      close(fd);
      return dbase::Unavailable("connect() failed: " + std::string(strerror(err)));
    }
    break;
  }
  int nodelay = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

}  // namespace dnet
