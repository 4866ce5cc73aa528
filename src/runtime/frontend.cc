#include "src/runtime/frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/runtime/cluster.h"
#include "src/runtime/fault.h"
#include "src/runtime/jail.h"

namespace dandelion {
namespace {

// A hostile Content-Length must not balloon memory: bodies beyond this are
// rejected with 413 before any body byte is buffered.
constexpr uint64_t kMaxBodyBytes = 64ull * 1024 * 1024;
// Header blocks are far smaller than bodies; an unterminated or oversized
// head is rejected at 64 KiB (slowloris / header-bomb guard).
constexpr size_t kMaxHeaderBytes = 64 * 1024;
// Bytes a draining connection will discard before giving up on the client.
constexpr size_t kMaxDrainBytes = 1u << 20;

// Blocking-style full write with EINTR retry; on EAGAIN (non-blocking fd,
// or SO_SNDTIMEO) it polls for writability instead of silently truncating
// the response. Bounded in time so a hostile zero-window client cannot
// pin the caller. Used outside the per-connection state machine (e.g. the
// over-capacity 503 written straight from accept).
void WriteAll(int fd, const std::string& data) {
  const dbase::Stopwatch watch;
  size_t offset = 0;
  while (offset < data.size() && watch.ElapsedMicros() < dbase::kMicrosPerSecond) {
    const ssize_t n = send(fd, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      poll(&pfd, 1, 100);
      continue;
    }
    return;  // Hard error (EPIPE, ...): the response is undeliverable.
  }
}

// True when `token` appears in the comma-separated Connection header value
// (RFC 9110 §7.6.1 — e.g. "close, te" contains "close").
bool ConnectionHeaderHasToken(std::string_view value, std::string_view token) {
  for (std::string_view part : dbase::SplitString(value, ',')) {
    if (dbase::EqualsIgnoreCase(dbase::TrimWhitespace(part), token)) {
      return true;
    }
  }
  return false;
}

// Keep-alive decision per RFC 9112 §9.3: HTTP/1.1 persists unless the
// client says "Connection: close"; HTTP/1.0 closes unless it says
// "Connection: keep-alive".
bool WantsKeepAlive(const dhttp::HttpRequest& request) {
  const auto connection = request.headers.Get("Connection");
  if (request.version == "HTTP/1.0") {
    return connection.has_value() && ConnectionHeaderHasToken(*connection, "keep-alive");
  }
  return !(connection.has_value() && ConnectionHeaderHasToken(*connection, "close"));
}

// Wire form of an invocation's response as a gather list. The success path
// never concatenates the payload: the HTTP header is one small owned chunk,
// and the marshalled sets follow as scatter chunks whose large payloads
// alias the result items' backing buffers (a producer's context region, or
// even the original request body for a pass-through composition) all the
// way into sendmsg.
WireChunks InvocationResponseWire(dbase::Result<dfunc::DataSetList> result) {
  if (result.ok()) {
    dfunc::DataSetList sets = std::move(result).value();
    const uint64_t payload_len = dfunc::MarshalledSize(sets);
    std::string head;
    head.reserve(96);
    head.append(
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-dandelion-sets\r\n"
        "Content-Length: ");
    head.append(std::to_string(payload_len));
    head.append("\r\n\r\n");
    WireChunks wire;
    wire.Append(dbase::BufferSlice(dbase::Buffer::FromString(std::move(head))));
    for (auto& chunk : dfunc::MarshalSetsScatter(sets)) {
      wire.Append(std::move(chunk));
    }
    return wire;
  }
  int code = 500;
  const char* reason = "Internal Server Error";
  switch (result.status().code()) {
    case dbase::StatusCode::kNotFound:
      code = 404;
      reason = "Not Found";
      break;
    case dbase::StatusCode::kDeadlineExceeded:
      code = 504;
      reason = "Gateway Timeout";
      break;
    case dbase::StatusCode::kCancelled:
      // nginx's convention for "client closed request"; mostly unreadable
      // (the client is usually gone) but keeps the wire truthful.
      code = 499;
      reason = "Client Closed Request";
      break;
    default:
      break;
  }
  return WireChunks::FromString(
      dhttp::HttpResponse::Make(code, reason, result.status().ToString()).Serialize());
}

// Minimal JSON string escaping for identifier-ish values.
void AppendJsonString(std::string* out, std::string_view value) {
  out->push_back('"');
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->append(dbase::StrFormat("\\u%04x", c));
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

HttpFrontend::HttpFrontend(Platform* platform, FrontendConfig config)
    : platform_(platform), config_(config), port_(config.port) {}

HttpFrontend::HttpFrontend(Platform* platform, uint16_t port)
    : HttpFrontend(platform, FrontendConfig{.port = port}) {}

HttpFrontend::~HttpFrontend() {
  Stop();
  // The frontend may not outlive its platform (it serves requests through
  // it), so the control plane — if any — is still valid here.
  if (signals_registered_) {
    if (ControlPlane* control = platform_->control_plane(); control != nullptr) {
      control->RemoveSignalSource(signal_source_id_);
    }
  }
}

dbase::Status HttpFrontend::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return dbase::Unavailable("socket() failed");
  }
  int reuse = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return dbase::Unavailable("bind() failed (sandboxed environment?)");
  }
  if (listen(listen_fd_, 128) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return dbase::Unavailable("listen() failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  auto loop = dbase::EventLoop::Create();
  if (!loop.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return loop.status();
  }
  loop_ = std::move(loop).value();
  const dbase::Status added = loop_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
  if (!added.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    loop_.reset();
    return added;
  }

  int dispatch_threads = config_.dispatch_threads;
  if (dispatch_threads < 0) {
    dispatch_threads = std::thread::hardware_concurrency() > 2 ? 2 : 0;
  }
  if (dispatch_threads > 0) {
    dispatch_pool_ = std::make_unique<dbase::WorkerPool>(dispatch_threads, "frontend-dispatch");
  }
  // Feed the admission-control counters into the elasticity control plane's
  // per-tick snapshot: 429s only — deadline expiries are already counted by
  // the dispatcher's signal source, and every frontend 504 is a dispatcher
  // kDeadlineExceeded, so adding deadline_504 here would double-count. The
  // registration is once per frontend (Start after Stop must not stack
  // duplicates) and undone in the destructor, so a replaced frontend does
  // not leave its frozen counters inflating the signal forever.
  if (ControlPlane* control = platform_->control_plane();
      control != nullptr && !signals_registered_) {
    signals_registered_ = true;
    signal_source_id_ = control->AddSignalSource(
        [counters = counters_, cluster = cluster_](dpolicy::ElasticitySignals* signals) {
          signals->admission_shed +=
              counters->shed_429.load(std::memory_order_relaxed);
          if (cluster == nullptr) {
            return;
          }
          // Router pressure: how often work had to move nodes, how much of
          // the fleet is unreachable, and what the wire is carrying.
          const Cluster::ClusterStats stats = cluster->Stats();
          signals->cluster_reroutes += stats.reroutes_shed + stats.reroutes_peer_lost;
          for (const Cluster::PeerStats& peer : stats.peers) {
            if (peer.remote && peer.state != "active") {
              ++signals->cluster_peers_unavailable;
            }
            signals->net_bytes_sent += peer.bytes_sent;
            signals->net_bytes_received += peer.bytes_received;
          }
        });
  }
  running_.store(true);
  loop_thread_ = dbase::JoiningThread("frontend", [loop = loop_] { loop->Run(); });
  return dbase::OkStatus();
}

void HttpFrontend::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  loop_->Stop();
  loop_thread_.Join();
  if (dispatch_pool_ != nullptr) {
    // Drains queued dispatches; their completions post into the (stopped)
    // loop and are simply never run.
    dispatch_pool_->Shutdown();
    dispatch_pool_.reset();
  }
  // The loop thread is gone; tear the remaining sockets down directly.
  for (auto& [fd, conn] : connections_) {
    close(fd);
    conn->fd = -1;
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpFrontend::OnAcceptable() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // Backlog drained.
      }
      if (errno != EMFILE && errno != ENFILE) {
        // Transient per-connection failures (ECONNABORTED: client RST'd
        // while queued; EPROTO, network errors) — skip that connection and
        // keep accepting, per accept(2).
        continue;
      }
      // Out of file descriptors: the pending connection stays in the
      // backlog, so level-triggered EPOLLIN would re-fire every wait and
      // spin the loop at 100% CPU. Mute the listener briefly and retry
      // once descriptors may have freed.
      (void)loop_->Modify(listen_fd_, 0);
      loop_->AddTimer(50 * dbase::kMicrosPerMilli, [this] {
        if (running_.load(std::memory_order_relaxed)) {
          (void)loop_->Modify(listen_fd_, EPOLLIN);
        }
      });
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      WriteAll(fd, dhttp::HttpResponse::Make(503, "Service Unavailable", "connection limit\n")
                       .Serialize());
      // Respond-then-drain, non-blocking flavour: signal end-of-response,
      // then clear whatever request bytes already arrived so close() does
      // not RST the 503 out of the client's receive buffer. Bytes still in
      // flight can race the close; blocking the accept path to wait for
      // them is not worth it on an already-overloaded node.
      shutdown(fd, SHUT_WR);
      char sink[4096];
      while (read(fd, sink, sizeof(sink)) > 0) {
      }
      close(fd);
      continue;
    }
    int nodelay = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->armed_events = EPOLLIN;
    conn->last_activity = dbase::MonotonicClock::Get()->NowMicros();
    connections_[fd] = conn;
    const dbase::Status added =
        loop_->Add(fd, EPOLLIN, [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!added.ok()) {
      connections_.erase(fd);
      close(fd);
      continue;
    }
    ArmIdleTimer(conn);
  }
}

void HttpFrontend::OnConnectionEvent(const ConnectionPtr& conn, uint32_t events) {
  if (conn->fd < 0) {
    return;
  }
  if (events & EPOLLERR) {
    CloseConnection(conn);
    return;
  }
  if (events & (EPOLLIN | EPOLLHUP)) {
    OnReadable(conn);
    if (conn->fd < 0) {
      return;
    }
  }
  if (events & EPOLLOUT) {
    TryWrite(conn);
  }
}

void HttpFrontend::OnReadable(const ConnectionPtr& conn) {
  // Per-callback read budget: a fast sender (loopback, 10GbE) can keep the
  // socket non-empty indefinitely; without a bound, one connection's
  // upload would monopolize the loop thread and buffer unboundedly ahead
  // of the pipeline-depth backpressure. Level-triggered epoll re-fires for
  // the remainder, interleaving other connections' events.
  constexpr size_t kReadBudget = 256 * 1024;
  size_t budget_used = 0;
  char chunk[16384];
  bool got_bytes = false;
  bool saw_eof = false;
  while (budget_used < kReadBudget) {
    const ssize_t n = read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      got_bytes = true;
      budget_used += static_cast<size_t>(n);
      if (conn->state == Connection::State::kDraining) {
        conn->drained_bytes += static_cast<size_t>(n);
        if (conn->drained_bytes > kMaxDrainBytes) {
          CloseConnection(conn);
          return;
        }
        continue;  // Discard: only waiting for the client to finish/close.
      }
      conn->in.append(chunk, static_cast<size_t>(n));
      total_buffered_bytes_ += static_cast<size_t>(n);
      if (total_buffered_bytes_ > config_.max_total_buffered_bytes) {
        // Platform-wide buffering budget breached: this connection's
        // bytes are the ones that tipped it, so it takes the 503.
        FailConnection(conn, dhttp::HttpResponse::Make(503, "Service Unavailable",
                                                       "request buffers full"));
        ReleaseDeadInput(conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      if (conn->state == Connection::State::kDraining) {
        CloseConnection(conn);  // Drain complete.
        return;
      }
      saw_eof = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConnection(conn);
    return;
  }
  if (got_bytes) {
    conn->last_activity = dbase::MonotonicClock::Get()->NowMicros();
  }
  // Parse BEFORE acting on EOF: a client may legitimately half-close right
  // after its (complete) requests and still expects every response —
  // including requests parked in `in` behind the pipeline-depth limit,
  // which get parsed later as slots free up.
  if (saw_eof) {
    conn->saw_eof = true;
  }
  if (conn->state == Connection::State::kReading) {
    ProcessInput(conn);
  }
  if (saw_eof && conn->fd >= 0) {
    MaybeFinishEof(conn);
    if (conn->fd >= 0) {
      UpdateInterest(conn);  // Drop EPOLLIN: nothing more will arrive.
    }
  }
}

void HttpFrontend::ProcessInput(const ConnectionPtr& conn) {
  // Outer loop: FlushPipeline pops inline-answered (already-ready) slots,
  // which can re-open pipeline capacity for requests still buffered in
  // `in` — without it, a burst of, say, 65 pipelined /healthz requests
  // would strand number 65 unparsed forever (no further EPOLLIN fires for
  // bytes already read). Progress is monotone (each pass consumes bytes),
  // so this terminates.
  bool progressed = true;
  size_t total_consumed = 0;
  while (progressed && conn->state == Connection::State::kReading) {
    progressed = false;
    size_t consumed = 0;
    while (conn->state == Connection::State::kReading &&
           conn->pipeline.size() < config_.max_pipeline_depth) {
      const std::string_view pending = std::string_view(conn->in).substr(consumed);
      auto head = dhttp::ScanMessageHead(pending, kMaxHeaderBytes);
      if (!head.ok()) {
        if (head.status().code() == dbase::StatusCode::kResourceExhausted) {
          FailConnection(conn, dhttp::HttpResponse::Make(413, "Payload Too Large",
                                                         head.status().ToString()));
        } else {
          FailConnection(conn, dhttp::HttpResponse::BadRequest(head.status().ToString()));
        }
        break;
      }
      if (!head->has_value()) {
        break;  // Incomplete head: wait for more bytes.
      }
      const dhttp::MessageHead& framing = head->value();
      if (framing.content_length > kMaxBodyBytes) {
        FailConnection(conn, dhttp::HttpResponse::Make(413, "Payload Too Large",
                                                       "request body too large"));
        break;
      }
      const size_t total = framing.head_bytes + static_cast<size_t>(framing.content_length);
      if (pending.size() < total) {
        break;  // Incomplete body: wait for more bytes.
      }
      const std::string_view wire = pending.substr(0, total);
      consumed += total;
      if (!HandleRequest(conn, wire)) {
        break;
      }
    }
    if (conn->fd < 0) {
      return;
    }
    if (consumed > 0) {
      conn->in.erase(0, consumed);
      total_buffered_bytes_ -= consumed;
      total_consumed += consumed;
    }
    const size_t slots_before = conn->pipeline.size();
    FlushPipeline(conn);  // Answer everything completed inline in one write.
    if (conn->fd < 0) {
      return;
    }
    // Consumed bytes and popped slots are both monotone, so requiring one
    // of them per pass guarantees termination.
    progressed = consumed > 0 || conn->pipeline.size() < slots_before;
    if (conn->in.empty() || conn->pipeline.size() >= config_.max_pipeline_depth) {
      break;  // Nothing left, or genuinely backpressured on async slots.
    }
  }
  if (conn->fd >= 0) {
    if (conn->state != Connection::State::kReading) {
      // Parsing stopped (error drain, Connection: close): leftover input
      // can never be consumed — drop it and free its budget share now.
      ReleaseDeadInput(conn);
    }
    // Track how long the buffered partial request has been pending (the
    // request_timeout trickle-slowloris bound). Completing a request is
    // progress and restarts the clock — a healthy pipelining client whose
    // buffer never drains to an exact request boundary must not age out.
    if (conn->in.empty()) {
      conn->partial_since = 0;
    } else if (conn->partial_since == 0 || total_consumed > 0) {
      conn->partial_since = dbase::MonotonicClock::Get()->NowMicros();
    }
    UpdateInterest(conn);
  }
}

bool HttpFrontend::HandleRequest(const ConnectionPtr& conn, std::string_view wire) {
  auto parsed = dhttp::ParseRequest(wire);
  if (!parsed.ok()) {
    // The framing was consistent but the request itself is malformed;
    // answer 400 and close (resynchronizing a pipelined stream after a bad
    // request is not worth the ambiguity).
    FailConnection(conn, dhttp::HttpResponse::BadRequest(parsed.status().ToString()));
    return false;
  }
  const dhttp::HttpRequest& request = parsed.value();
  const std::string& target = request.target;

  auto slot = std::make_shared<Connection::ResponseSlot>();
  conn->pipeline.push_back(slot);
  if (!WantsKeepAlive(request)) {
    conn->state = Connection::State::kStopped;  // Flush, then close.
  }

  if (request.method == dhttp::Method::kGet && target == "/healthz") {
    FinishSlot(conn, slot, dhttp::HttpResponse::Ok("ok\n"));
  } else if (request.method == dhttp::Method::kGet && target == "/compositions") {
    std::string json = "{\"compositions\":[";
    bool first = true;
    for (const std::string& name : platform_->compositions().Names()) {
      if (!first) {
        json.push_back(',');
      }
      first = false;
      AppendJsonString(&json, name);
    }
    json += "]}\n";
    dhttp::HttpResponse response = dhttp::HttpResponse::Ok(std::move(json));
    response.headers.Set("Content-Type", "application/json");
    FinishSlot(conn, slot, response);
  } else if (request.method == dhttp::Method::kGet && target == "/statz") {
    dhttp::HttpResponse response = dhttp::HttpResponse::Ok(StatzJson());
    response.headers.Set("Content-Type", "application/json");
    FinishSlot(conn, slot, response);
  } else if (request.method == dhttp::Method::kPost && target == "/register/composition") {
    const dbase::Status status = platform_->RegisterCompositionDsl(request.body);
    FinishSlot(conn, slot,
               status.ok() ? dhttp::HttpResponse::Make(201, "Created", "registered\n")
                           : dhttp::HttpResponse::BadRequest(status.ToString()));
  } else if (request.method == dhttp::Method::kPost && target.rfind("/invoke/", 0) == 0) {
    // Hand the dispatch itself (argument resolution, memory-context
    // creation, input marshalling inside the dispatcher) to the pool so the
    // loop thread moves on to the next connection immediately — unless the
    // pool is disabled (small machines), where dispatching inline avoids a
    // thread hop. Either way the engine work itself is asynchronous.
    std::weak_ptr<Connection> weak_conn = conn;
    if (dispatch_pool_ == nullptr) {
      DispatchInvoke(weak_conn, slot, std::move(parsed).value());
    } else if (!dispatch_pool_->Submit(
                   [this, weak_conn, slot, request = std::move(parsed).value()]() mutable {
                     DispatchInvoke(weak_conn, slot, std::move(request));
                   })) {
      FinishSlot(conn, slot,
                 dhttp::HttpResponse::Make(503, "Service Unavailable", "shutting down"));
    }
  } else {
    FinishSlot(conn, slot, dhttp::HttpResponse::NotFound("unknown endpoint: " + target));
  }
  return conn->fd >= 0 && conn->state == Connection::State::kReading;
}

void HttpFrontend::DispatchInvoke(const std::weak_ptr<Connection>& weak_conn, const SlotPtr& slot,
                                  dhttp::HttpRequest request) {
  const std::string composition = request.target.substr(std::strlen("/invoke/"));

  // Request class and deadline come off the headers before any expensive
  // work: a shed or malformed request must cost the node nothing.
  PriorityClass priority = PriorityClass::kInteractive;
  if (const auto header = request.headers.Get("X-Dandelion-Priority"); header.has_value()) {
    auto parsed = PriorityClassFromName(*header);
    if (!parsed.ok()) {
      PostSlotCompletion(weak_conn, slot,
                         WireChunks::FromString(
                             dhttp::HttpResponse::BadRequest(parsed.status().ToString())
                                 .Serialize()));
      return;
    }
    priority = *parsed;
  }
  dbase::Micros deadline_us = 0;
  if (const auto header = request.headers.Get("X-Dandelion-Deadline-Ms"); header.has_value()) {
    int64_t ms = 0;
    if (!dbase::ParseInt64(*header, &ms) || ms <= 0) {
      PostSlotCompletion(
          weak_conn, slot,
          WireChunks::FromString(
              dhttp::HttpResponse::BadRequest("invalid X-Dandelion-Deadline-Ms").Serialize()));
      return;
    }
    deadline_us = dbase::MonotonicClock::Get()->NowMicros() + ms * dbase::kMicrosPerMilli;
  }

  // Per-class admission control: reject early with 429 once the class's
  // in-flight cap is reached, instead of queueing blindly until buffers or
  // clients give up.
  const auto class_index = static_cast<size_t>(priority);
  const size_t cap = priority == PriorityClass::kInteractive
                         ? config_.max_inflight_interactive
                         : config_.max_inflight_batch;
  const std::shared_ptr<InvokeCounters> counters = counters_;
  if (cap > 0 &&
      static_cast<size_t>(counters->inflight[class_index].fetch_add(
          1, std::memory_order_relaxed)) >= cap) {
    counters->inflight[class_index].fetch_sub(1, std::memory_order_relaxed);
    counters->shed_429.fetch_add(1, std::memory_order_relaxed);
    PostSlotCompletion(
        weak_conn, slot,
        WireChunks::FromString(
            dhttp::HttpResponse::Make(429, "Too Many Requests",
                                      "admission control: " +
                                          std::string(PriorityClassName(priority)) +
                                          " in-flight cap reached\n")
                .Serialize()));
    return;
  }
  const auto release_admission = [counters, class_index] {
    counters->inflight[class_index].fetch_sub(1, std::memory_order_relaxed);
  };

  // Zero-copy ingest: the request body moves into a refcounted buffer
  // (adopting the string's storage, no byte copy) and argument payloads
  // become slices of it. The buffer stays alive — pinned by the item
  // refcounts — until the last node consuming those bytes completes.
  dbase::BufferSlice body(dbase::Buffer::FromString(std::move(request.body)));
  dfunc::DataSetList args;
  if (request.headers.Get("X-Dandelion-Raw").has_value()) {
    // Plain-text convenience: the body becomes the single item of a set
    // named after the composition's first parameter.
    auto graph = platform_->compositions().Lookup(composition);
    if (!graph.ok() || graph.value()->params().empty()) {
      release_admission();
      PostSlotCompletion(weak_conn, slot,
                         WireChunks::FromString(
                             dhttp::HttpResponse::NotFound("unknown composition").Serialize()));
      return;
    }
    dfunc::DataPlaneStats::Get().bytes_aliased.fetch_add(body.size(),
                                                         std::memory_order_relaxed);
    args.push_back(dfunc::DataSet{graph.value()->params().front(),
                                  {dfunc::DataItem{"", std::move(body)}}});
  } else {
    // Aliasing unmarshal: item payloads are sub-slices of the body buffer.
    auto unmarshalled = dfunc::UnmarshalSets(body);
    if (!unmarshalled.ok()) {
      release_admission();
      PostSlotCompletion(
          weak_conn, slot,
          WireChunks::FromString(
              dhttp::HttpResponse::BadRequest(unmarshalled.status().ToString()).Serialize()));
      return;
    }
    args = std::move(unmarshalled).value();
  }

  InvocationRequest invocation;
  invocation.composition = composition;
  invocation.args = std::move(args);
  invocation.deadline_us = deadline_us;
  invocation.priority = priority;

  // The completion runs on an engine thread, possibly after Stop() — it
  // captures the loop shared_ptr and the counters block itself (keeping
  // both alive until the last completion lands) and must not read frontend
  // members. The posted closure only ever runs on a live loop, which
  // implies a live frontend (Stop() joins the loop thread before
  // destruction).
  auto completion = [this, loop = loop_, counters, class_index, weak_conn,
                     slot](dbase::Result<dfunc::DataSetList> result) {
    counters->inflight[class_index].fetch_sub(1, std::memory_order_relaxed);
    counters->served.fetch_add(1, std::memory_order_relaxed);
    if (!result.ok() &&
        result.status().code() == dbase::StatusCode::kDeadlineExceeded) {
      counters->deadline_504.fetch_add(1, std::memory_order_relaxed);
    }
    WireChunks bytes = InvocationResponseWire(std::move(result));
    loop->Post([this, weak_conn, slot, bytes = std::move(bytes)]() mutable {
      ApplySlotCompletion(weak_conn, slot, std::move(bytes));
    });
  };
  InvocationHandle handle;
  if (cluster_ != nullptr) {
    // Cluster route: locality-aware placement across local + remote nodes,
    // with cross-node shed/peer-lost re-routing, behind the same callback.
    handle = cluster_->InvokeAsync(
        std::move(invocation),
        [completion = std::move(completion)](dbase::Result<dfunc::DataSetList> result,
                                             int /*node*/) { completion(std::move(result)); });
  } else {
    handle = platform_->Submit(std::move(invocation), std::move(completion));
  }

  // Attach the handle so a dying connection cancels the invocation instead
  // of letting orphaned work run to completion. If the connection already
  // died while we were dispatching, cancel right here.
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->abandoned) {
      counters->disconnect_cancelled.fetch_add(1, std::memory_order_relaxed);
      handle.Cancel();
    } else {
      slot->handle = std::move(handle);
    }
  }
}

void HttpFrontend::PostSlotCompletion(const std::weak_ptr<Connection>& weak_conn,
                                      const SlotPtr& slot, WireChunks bytes) {
  loop_->Post([this, weak_conn, slot, bytes = std::move(bytes)]() mutable {
    ApplySlotCompletion(weak_conn, slot, std::move(bytes));
  });
}

void HttpFrontend::ApplySlotCompletion(const std::weak_ptr<Connection>& weak_conn,
                                       const SlotPtr& slot, WireChunks bytes) {
  slot->ready = true;
  slot->bytes = std::move(bytes);
  const ConnectionPtr locked = weak_conn.lock();
  if (locked == nullptr || locked->fd < 0) {
    return;  // Connection died first; the slot was never budget-counted.
  }
  if (!AccountResponseBytes(locked, slot->bytes.total_bytes)) {
    return;
  }
  if (locked->flush_queued) {
    return;
  }
  // Defer the actual socket work one loop turn: completions that land in
  // the same posted batch coalesce into one flush (and one write) per
  // connection.
  locked->flush_queued = true;
  dirty_connections_.push_back(locked);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    loop_->Post([this] { FlushDirtyConnections(); });
  }
}

void HttpFrontend::FlushDirtyConnections() {
  flush_scheduled_ = false;
  std::vector<ConnectionPtr> batch;
  batch.swap(dirty_connections_);
  for (const ConnectionPtr& conn : batch) {
    conn->flush_queued = false;
    if (conn->fd < 0) {
      continue;
    }
    FlushPipeline(conn);
    // Popping slots may have lifted pipelining backpressure; any requests
    // already buffered in `in` get no further EPOLLIN edge, so resume
    // parsing them here.
    if (conn->fd >= 0 && conn->state == Connection::State::kReading && !conn->in.empty()) {
      ProcessInput(conn);
    }
    if (conn->fd >= 0) {
      MaybeFinishEof(conn);
    }
  }
}

void HttpFrontend::FinishSlot(const ConnectionPtr& conn, const SlotPtr& slot,
                              const dhttp::HttpResponse& response) {
  // Mark-only: the caller (ProcessInput) flushes once after consuming the
  // whole read buffer, so a burst of inline-handled pipelined requests is
  // answered with one write.
  slot->ready = true;
  slot->bytes = WireChunks::FromString(response.Serialize());
  AccountResponseBytes(conn, slot->bytes.total_bytes);
}

void HttpFrontend::ReleaseDeadInput(const ConnectionPtr& conn) {
  total_buffered_bytes_ -= conn->in.size();
  conn->in.clear();
  conn->partial_since = 0;
}

bool HttpFrontend::AccountResponseBytes(const ConnectionPtr& conn, size_t bytes) {
  total_response_bytes_ += bytes;
  if (total_response_bytes_ > config_.max_total_response_bytes) {
    // A reader this far behind has clogged its own write path; an error
    // response could not reach it. Closing releases its share.
    CloseConnection(conn);
    return false;
  }
  return true;
}

void HttpFrontend::FailConnection(const ConnectionPtr& conn, dhttp::HttpResponse response) {
  if (conn->state == Connection::State::kDraining || conn->fd < 0) {
    return;
  }
  auto slot = std::make_shared<Connection::ResponseSlot>();
  slot->ready = true;
  slot->bytes = WireChunks::FromString(response.Serialize());
  conn->pipeline.push_back(slot);
  conn->state = Connection::State::kStopped;
  conn->drain_requested = true;
  if (!AccountResponseBytes(conn, slot->bytes.total_bytes)) {
    return;  // Budget breach closed the connection outright.
  }
  FlushPipeline(conn);
}

void HttpFrontend::FlushPipeline(const ConnectionPtr& conn) {
  while (!conn->pipeline.empty() && conn->pipeline.front()->ready) {
    WireChunks& wire = conn->pipeline.front()->bytes;
    for (auto& chunk : wire.chunks) {
      if (!chunk.empty()) {
        conn->out.push_back(std::move(chunk));
      }
    }
    conn->out_pending += wire.total_bytes;
    conn->pipeline.pop_front();
  }
  TryWrite(conn);
}

void HttpFrontend::TryWrite(const ConnectionPtr& conn) {
  while (conn->HasPendingOut()) {
    // Gather the queued chunks into one sendmsg: header, framing, and
    // payload slices go to the kernel without ever being concatenated.
    // MSG_NOSIGNAL: a client that hung up is EPIPE here, not a SIGPIPE.
    constexpr size_t kMaxIov = 64;
    iovec iov[kMaxIov];
    size_t iov_count = 0;
    size_t skip = conn->out_offset;  // Partial-write cursor into the front chunk.
    for (const dbase::BufferSlice& chunk : conn->out) {
      if (iov_count == kMaxIov) {
        break;
      }
      iov[iov_count].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iov_count].iov_len = chunk.size() - skip;
      skip = 0;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pending -= static_cast<size_t>(n);
      total_response_bytes_ -= static_cast<size_t>(n);
      // Advance the cursor: drop fully-sent chunks, move the offset within
      // the first partially-sent one.
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0) {
        const size_t front_remaining = conn->out.front().size() - conn->out_offset;
        if (advanced >= front_remaining) {
          advanced -= front_remaining;
          conn->out.pop_front();
          conn->out_offset = 0;
        } else {
          conn->out_offset += advanced;
          advanced = 0;
        }
      }
      // Write progress counts as liveness for the idle timer: a client
      // consuming a large response slowly is slow, not stalled.
      conn->last_activity = dbase::MonotonicClock::Get()->NowMicros();
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    CloseConnection(conn);  // Hard error: the peer is gone.
    return;
  }
  if (!conn->HasPendingOut() && conn->pipeline.empty() &&
      conn->state == Connection::State::kStopped) {
    if (conn->drain_requested) {
      BeginDrain(conn);
    } else {
      CloseConnection(conn);
    }
    return;
  }
  // The EPOLLOUT-driven drain of a half-closed connection's last response
  // ends here, with no FlushDirtyConnections pass behind it to finish up.
  MaybeFinishEof(conn);
  if (conn->fd >= 0) {
    UpdateInterest(conn);
  }
}

void HttpFrontend::MaybeFinishEof(const ConnectionPtr& conn) {
  // Only while kReading: kStopped/kDraining have their own close paths.
  if (conn->fd < 0 || !conn->saw_eof || conn->state != Connection::State::kReading ||
      !conn->pipeline.empty() || conn->HasPendingOut()) {
    return;
  }
  if (!conn->in.empty()) {
    // Buffered bytes remain. This can be a still-parseable request parked
    // behind the backpressure limit when the EOF arrived (every caller
    // runs ProcessInput right after us — it must get its chance, the
    // client fully delivered it) — only an incomplete tail, which can
    // never finish arriving now, closes the connection here.
    auto head = dhttp::ScanMessageHead(conn->in, kMaxHeaderBytes);
    const bool incomplete =
        head.ok() && (!head->has_value() ||
                      conn->in.size() < (*head)->head_bytes +
                                            static_cast<size_t>((*head)->content_length));
    if (!incomplete) {
      return;
    }
  }
  CloseConnection(conn);
}

void HttpFrontend::UpdateInterest(const ConnectionPtr& conn) {
  if (conn->fd < 0) {
    return;
  }
  uint32_t events = 0;
  switch (conn->state) {
    case Connection::State::kReading:
      // Backpressure: stop reading while the pipeline is full. After a
      // half-close there is nothing left to read either.
      if (!conn->saw_eof && conn->pipeline.size() < config_.max_pipeline_depth) {
        events |= EPOLLIN;
      }
      break;
    case Connection::State::kStopped:
      // No further requests will be accepted; reading more would only
      // buffer hostile bytes unboundedly. Responses still flush out.
      break;
    case Connection::State::kDraining:
      events |= EPOLLIN;  // Discarding the client's in-flight body.
      break;
  }
  if (conn->HasPendingOut()) {
    events |= EPOLLOUT;
  }
  if (events == conn->armed_events) {
    return;
  }
  conn->armed_events = events;
  if (!loop_->Modify(conn->fd, events).ok()) {
    CloseConnection(conn);
  }
}

void HttpFrontend::ArmIdleTimer(const ConnectionPtr& conn) {
  std::weak_ptr<Connection> weak_conn = conn;
  conn->idle_timer = loop_->AddTimer(config_.idle_timeout, [this, weak_conn] {
    const ConnectionPtr locked = weak_conn.lock();
    if (locked == nullptr || locked->fd < 0) {
      return;
    }
    // A connection whose invocation is still running in the engines is
    // working, not idle — a slow composition must not be reaped out from
    // under its client (engine deadlines bound that state). Everything
    // else falls through to the inactivity check: reads AND write
    // progress refresh last_activity, so a stalled reader that never
    // drains its response is reaped just like a stalled sender.
    if (!locked->pipeline.empty()) {
      ArmIdleTimer(locked);
      return;
    }
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    // Absolute per-request deadline: a trickle-slowloris client feeding
    // one header byte per idle_timeout defeats the inactivity check below
    // forever, but not this bound on the partial request's total age.
    if (locked->partial_since != 0 && now - locked->partial_since >= config_.request_timeout) {
      CloseConnection(locked);
      return;
    }
    if (now - locked->last_activity >= config_.idle_timeout) {
      CloseConnection(locked);  // Slowloris / stale keep-alive reap.
      return;
    }
    ArmIdleTimer(locked);  // Activity since arming: sleep out the remainder.
  });
}

void HttpFrontend::BeginDrain(const ConnectionPtr& conn) {
  conn->state = Connection::State::kDraining;
  conn->drained_bytes = 0;
  shutdown(conn->fd, SHUT_WR);  // Signal end-of-response to the client.
  // Make sure reads are on (backpressure may have paused them) so the
  // client's unread body bytes keep draining until EOF, the byte cap, or
  // the drain timer closes the socket.
  UpdateInterest(conn);
  if (conn->fd < 0) {
    return;  // The interest change failed and closed the connection.
  }
  std::weak_ptr<Connection> weak_conn = conn;
  loop_->AddTimer(config_.drain_timeout, [this, weak_conn] {
    const ConnectionPtr locked = weak_conn.lock();
    if (locked != nullptr && locked->fd >= 0) {
      CloseConnection(locked);
    }
  });
}

void HttpFrontend::CloseConnection(const ConnectionPtr& conn) {
  if (conn->fd < 0) {
    return;
  }
  total_buffered_bytes_ -= conn->in.size();
  conn->in.clear();
  // Release this connection's share of the response budget: the unsent
  // chunk tail plus every completed slot (not-yet-completed slots were
  // never counted, and their completions see the dead connection).
  total_response_bytes_ -= conn->out_pending;
  for (const SlotPtr& slot : conn->pipeline) {
    if (slot->ready) {
      total_response_bytes_ -= slot->bytes.total_bytes;
    }
  }
  loop_->CancelTimer(conn->idle_timer);
  loop_->Remove(conn->fd);
  close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;
  // The client is gone: cancel every invocation still running on its
  // behalf so orphaned work stops consuming engines. Slots whose dispatch
  // is still in flight are marked abandoned and cancelled by the
  // dispatching thread instead.
  for (const SlotPtr& slot : conn->pipeline) {
    if (slot->ready) {
      continue;
    }
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->abandoned = true;
    if (slot->handle.valid() && !slot->handle.done()) {
      counters_->disconnect_cancelled.fetch_add(1, std::memory_order_relaxed);
      slot->handle.Cancel();
    }
  }
  // In-flight async completions hold the slots; with the connection gone
  // their posted flushes become no-ops.
  conn->pipeline.clear();
}

std::string HttpFrontend::StatzJson() const {
  const EngineStats engine = platform_->engine_stats();
  const DispatcherStats dispatcher = platform_->dispatcher_stats();
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::string json = "{\"engine\":{";
  json += dbase::StrFormat(
      "\"compute_tasks\":%llu,\"comm_tasks\":%llu,\"compute_aborted\":%llu,"
      "\"comm_aborted\":%llu,\"compute_queue_len\":%llu,\"comm_queue_len\":%llu,"
      "\"compute_workers\":%d,\"comm_workers\":%d,\"compute_steals\":%llu,"
      "\"comm_steals\":%llu",
      u(engine.compute_tasks), u(engine.comm_tasks), u(engine.compute_aborted),
      u(engine.comm_aborted), u(engine.compute_queue_len), u(engine.comm_queue_len),
      engine.compute_workers, engine.comm_workers, u(engine.compute_steals),
      u(engine.comm_steals));
  json += "},\"dispatcher\":{";
  json += dbase::StrFormat(
      "\"invocations_started\":%llu,\"invocations_completed\":%llu,"
      "\"invocations_failed\":%llu,\"invocations_cancelled\":%llu,"
      "\"invocations_deadline_exceeded\":%llu,\"compute_instances\":%llu,"
      "\"comm_instances\":%llu,\"skipped_instances\":%llu,"
      "\"inflight_interactive\":%llu,\"inflight_batch\":%llu",
      u(dispatcher.invocations_started), u(dispatcher.invocations_completed),
      u(dispatcher.invocations_failed), u(dispatcher.invocations_cancelled),
      u(dispatcher.invocations_deadline_exceeded), u(dispatcher.compute_instances),
      u(dispatcher.comm_instances), u(dispatcher.skipped_instances),
      u(dispatcher.inflight_interactive), u(dispatcher.inflight_batch));
  json += "},\"frontend\":{";
  json += dbase::StrFormat(
      "\"open_connections\":%llu,\"inflight_interactive\":%lld,"
      "\"inflight_batch\":%lld,\"served\":%llu,\"shed_429\":%llu,"
      "\"deadline_504\":%llu,\"disconnect_cancelled\":%llu",
      u(connections_.size()),
      static_cast<long long>(counters_->inflight[static_cast<size_t>(
          PriorityClass::kInteractive)].load(std::memory_order_relaxed)),
      static_cast<long long>(counters_->inflight[static_cast<size_t>(
          PriorityClass::kBatch)].load(std::memory_order_relaxed)),
      u(counters_->served.load(std::memory_order_relaxed)),
      u(counters_->shed_429.load(std::memory_order_relaxed)),
      u(counters_->deadline_504.load(std::memory_order_relaxed)),
      u(counters_->disconnect_cancelled.load(std::memory_order_relaxed)));
  json += "},\"data_plane\":{";
  json += dbase::StrFormat(
      "\"bytes_copied\":%llu,\"bytes_aliased\":%llu,\"payload_promotions\":%llu,"
      "\"cow_detaches\":%llu,\"binding_materializations\":%llu",
      u(dispatcher.bytes_copied), u(dispatcher.bytes_aliased),
      u(dispatcher.payload_promotions), u(dispatcher.cow_detaches),
      u(dispatcher.binding_materializations));
  json += "},\"control_plane\":{";
  if (ControlPlane* control = platform_->control_plane(); control != nullptr) {
    const ControlPlane::Summary summary = control->GetSummary();
    // Policy names and reasons come from user-suppliable policy objects:
    // escape them like every other caller-supplied string.
    json += "\"enabled\":true,\"policy\":";
    AppendJsonString(&json, summary.policy_name);
    json += dbase::StrFormat(
        ",\"compute_workers\":%d,\"comm_workers\":%d,\"decisions\":%llu,"
        "\"shifts_toward_compute\":%llu,\"shifts_toward_comm\":%llu",
        engine.compute_workers, engine.comm_workers, u(summary.decisions),
        u(summary.shifts_toward_compute), u(summary.shifts_toward_comm));
    if (summary.decisions > 0) {
      json += dbase::StrFormat(
          ",\"last_decision\":{\"time_us\":%lld,\"signal\":%.3f,"
          "\"shift_toward_compute\":%d,\"shifted\":%d,\"panic\":%s,\"reason\":",
          static_cast<long long>(summary.last.time_us), summary.last.action.signal,
          summary.last.action.shift_toward_compute, summary.last.shifted,
          summary.last.action.panic ? "true" : "false");
      AppendJsonString(&json, summary.last.action.reason);
      json += "}";
    }
  } else {
    json += dbase::StrFormat(
        "\"enabled\":false,\"compute_workers\":%d,\"comm_workers\":%d",
        engine.compute_workers, engine.comm_workers);
  }
  json += "},\"sandbox_pool\":{";
  if (SandboxPool* pool = platform_->sandbox_pool(); pool != nullptr) {
    const SandboxPoolStats warm = pool->Stats();
    json += dbase::StrFormat(
        "\"enabled\":true,\"hits\":%llu,\"misses\":%llu,\"bypassed\":%llu,"
        "\"prewarm_fills\":%llu,\"recycled\":%llu,\"retired\":%llu,"
        "\"arrivals\":%llu,\"pool_child_lost\":%llu,\"shelved\":%d,\"leased\":%d,"
        "\"functions\":%d,\"max_total\":%d",
        u(warm.hits), u(warm.misses), u(warm.bypassed), u(warm.prewarm_fills),
        u(warm.recycled), u(warm.retired), u(warm.arrivals), u(warm.pool_child_lost),
        warm.shelved, warm.leased, warm.functions, warm.max_total);
    bool first = true;
    json += ",\"targets\":{";
    for (const auto& [name, decision] : pool->LastDecisions()) {
      if (!first) {
        json.push_back(',');
      }
      first = false;
      // Function names and policy reasons are caller-supplied: escape them
      // (a quote or backslash must not corrupt the document).
      AppendJsonString(&json, name);
      json += dbase::StrFormat(":{\"depth\":%d,\"rate_per_sec\":%.2f,\"reason\":",
                               decision.target_depth, decision.rate_per_sec);
      AppendJsonString(&json, decision.reason);
      json += "}";
    }
    json += "}";
  } else {
    json += "\"enabled\":false";
  }
  // Fault containment: jail capability, injected faults, retry/breaker
  // activity. `seccomp_filter` false means the process backend runs
  // unconfined (kernel without seccomp) — tests and operators must be able
  // to tell that apart from "jailed".
  const SandboxCapabilities& caps = SandboxCapabilities::Get();
  json += dbase::StrFormat("},\"jail\":{\"seccomp_filter\":%s,\"enabled\":%s,",
                           caps.seccomp_filter ? "true" : "false",
                           SyscallJailEnabled() ? "true" : "false");
  json += "\"detail\":";
  AppendJsonString(&json, caps.detail);
  json += "},\"faults\":{";
  {
    bool first = true;
    for (const FaultPointSnapshot& point : FaultInjector::Get().Snapshot()) {
      if (!first) {
        json.push_back(',');
      }
      first = false;
      json += dbase::StrFormat(
          "\"%s\":{\"armed\":%s,\"crossings\":%llu,\"fired\":%llu}",
          std::string(FaultPointName(point.point)).c_str(),
          point.armed ? "true" : "false", u(point.crossings), u(point.fired));
    }
  }
  json += "},\"retries\":{";
  json += dbase::StrFormat(
      "\"sandbox_failures\":%llu,\"attempted\":%llu,\"denied\":%llu",
      u(dispatcher.sandbox_failures), u(dispatcher.retries_attempted),
      u(dispatcher.retries_denied));
  json += "},\"breaker\":{";
  json += dbase::StrFormat(
      "\"fast_fails\":%llu,\"trips\":%llu,\"recoveries\":%llu,\"open\":%d,"
      "\"functions\":{",
      u(dispatcher.breaker_fast_fails), u(dispatcher.breaker_trips),
      u(dispatcher.breaker_recoveries), dispatcher.breakers_open);
  {
    bool first = true;
    for (const dpolicy::BreakerSnapshot& breaker : platform_->breaker_snapshots()) {
      if (!first) {
        json.push_back(',');
      }
      first = false;
      AppendJsonString(&json, breaker.function);
      json += dbase::StrFormat(":{\"state\":\"%s\",\"consecutive_failures\":%d}",
                               std::string(dpolicy::BreakerStateName(breaker.state)).c_str(),
                               breaker.consecutive_failures);
    }
  }
  json += "}}";
  // Distributed data plane: router-side view of every cluster node — wire
  // counters from the NodeClient, membership state + gossip staleness, and
  // the cross-node re-route activity.
  json += ",\"cluster\":{";
  if (cluster_ != nullptr) {
    const Cluster::ClusterStats cluster = cluster_->Stats();
    json += dbase::StrFormat(
        "\"enabled\":true,\"reroutes_shed\":%llu,\"reroutes_peer_lost\":%llu,"
        "\"reroute_denied\":%llu,\"no_eligible_node\":%llu,\"gossip_rounds\":%llu,"
        "\"members_suspected\":%llu,\"members_evicted\":%llu,"
        "\"members_rejoined\":%llu,\"scale_out_hints\":%llu,\"scale_in_hints\":%llu,"
        "\"peers\":{",
        u(cluster.reroutes_shed), u(cluster.reroutes_peer_lost), u(cluster.reroute_denied),
        u(cluster.no_eligible_node), u(cluster.gossip_rounds), u(cluster.membership.suspects),
        u(cluster.membership.evictions), u(cluster.membership.rejoins),
        u(cluster.membership.scale_out_hints), u(cluster.membership.scale_in_hints));
    bool first = true;
    for (const Cluster::PeerStats& peer : cluster.peers) {
      if (!first) {
        json.push_back(',');
      }
      first = false;
      AppendJsonString(&json, peer.name);
      json += dbase::StrFormat(
          ":{\"remote\":%s,\"state\":\"%s\",\"served\":%llu,\"inflight\":%lld,"
          "\"invokes_sent\":%llu,\"sheds_received\":%llu,\"peer_lost_failures\":%llu,"
          "\"bytes_sent\":%llu,\"bytes_received\":%llu,\"gossip_age_us\":%lld,"
          "\"remote_inflight\":%llu,\"remote_admission_cap\":%llu,"
          "\"utilization\":%.3f}",
          peer.remote ? "true" : "false", std::string(peer.state).c_str(), u(peer.served),
          static_cast<long long>(peer.inflight), u(peer.invokes_sent), u(peer.sheds_received),
          u(peer.peer_lost_failures), u(peer.bytes_sent), u(peer.bytes_received),
          static_cast<long long>(peer.gossip_age_us), u(peer.remote_inflight),
          u(peer.remote_admission_cap), peer.utilization);
    }
    json += "}";
  } else {
    json += "\"enabled\":false";
  }
  json += "}}\n";
  return json;
}

}  // namespace dandelion
