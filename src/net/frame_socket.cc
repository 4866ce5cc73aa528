#include "src/net/frame_socket.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace dnet {

dbase::Result<std::shared_ptr<FrameSocket>> FrameSocket::Adopt(
    dbase::EventLoop::Scope* scope, int fd, FrameLimits limits,
    std::shared_ptr<PeerCounters> counters, FrameHandler on_frame, CloseHandler on_close) {
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
  send_queue_.Push(dbase::BufferSlice(dbase::Buffer::FromString(EncodeFrameHeader(header))));
  for (auto& chunk : body) {
    send_queue_.Push(std::move(chunk));
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
  send_queue_.Clear();
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
      counters_->bytes_received += static_cast<uint64_t>(n);
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
      // Size once, zero-filling once: the limit check already bounded
      // body_len, so a hostile length cannot force an unbounded
      // allocation, and reads land in place however many it takes.
      body_.resize(pending_.body_len);
      body_filled_ = 0;
      continue;
    }
    // Stream the body directly into its final storage; when complete the
    // string is adopted (moved, not copied) into a refcounted Buffer.
    const ssize_t n = read(fd_, body_.data() + body_filled_, body_.size() - body_filled_);
    if (n == 0) {
      Close(dbase::Aborted("eof inside frame body"));
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
    body_filled_ += static_cast<size_t>(n);
    counters_->bytes_received += static_cast<uint64_t>(n);
    budget -= static_cast<size_t>(n) < budget ? static_cast<size_t>(n) : budget;
    if (body_filled_ < body_.size()) {
      continue;
    }
    reading_body_ = false;
    dbase::BufferSlice body(dbase::Buffer::FromString(std::move(body_)));
    body_ = std::string();
    on_frame_(pending_, std::move(body));
  }
}

void FrameSocket::FlushWrites() {
  const dbase::Result<size_t> sent = send_queue_.Flush(fd_);
  if (!sent.ok()) {
    Close(sent.status());
    return;
  }
  counters_->bytes_sent += *sent;
  UpdateInterest();
}

void FrameSocket::UpdateInterest() {
  if (fd_ < 0) {
    return;
  }
  const uint32_t want =
      EPOLLIN | (send_queue_.pending() == 0 ? 0u : static_cast<uint32_t>(EPOLLOUT));
  if (want == armed_events_) {
    return;
  }
  if (!scope_->Modify(fd_, want).ok()) {
    Close(dbase::Unavailable("epoll_ctl(MOD) failed"));
    return;
  }
  armed_events_ = want;
}

}  // namespace dnet
