#include "src/runtime/frontend.h"

#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "src/base/json.h"
#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/net/socket.h"
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
// Bound on the respond-then-drain window after a request-framing error.
constexpr dbase::Micros kDrainTimeout = dbase::kMicrosPerSecond;
// The response-side twin of FrontendConfig::max_total_buffered_bytes:
// completed responses waiting in slots or in write buffers, across ALL
// connections. A client that sends requests but never reads the answers
// accumulates here; the connection that breaches the budget is closed (its
// write path is clogged, so no error response could reach it anyway).
constexpr size_t kMaxTotalResponseBytes = 256 * 1024 * 1024;
// One read(2) into a connection's `in`. A body with more than this still
// missing once its head is parsed is read into its own region instead
// (body mode); a smaller rest is cheaper to append to `in` than to map.
constexpr size_t kReadChunkBytes = 16 * 1024;

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
    case dbase::StatusCode::kUnavailable:
      // Breaker fast-fails, a shed after its re-route, no eligible cluster
      // node, peer loss past the retry budget, engines shut down: the
      // platform could not serve it now, the function did not crash.
      code = 503;
      reason = "Service Unavailable";
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

}  // namespace

HttpFrontend::HttpFrontend(Platform* platform, FrontendConfig config)
    : platform_(platform),
      config_(config),
      port_(config.port),
      ingress_(config.max_inflight_interactive, config.max_inflight_batch) {}

HttpFrontend::HttpFrontend(Platform* platform, uint16_t port)
    : HttpFrontend(platform, FrontendConfig{.port = port}) {}

HttpFrontend::~HttpFrontend() { Stop(); }

dbase::Status HttpFrontend::Start() {
  ASSIGN_OR_RETURN(listen_fd_, dnet::ListenLoopback(port_, 128));
  auto port = dnet::BoundPort(listen_fd_);
  if (!port.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;

  scope_ = std::make_shared<dbase::EventLoop::Scope>(dbase::EventLoop::Process());
  running_.store(true);
  // Registered on the reactor's turn; connections arriving until then wait
  // in the backlog.
  scope_->Post([this] {
    const dbase::Status added =
        scope_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
    if (!added.ok()) {
      DLOG(Error) << "frontend cannot accept: " << added.ToString();
    }
  });
  return dbase::OkStatus();
}

void HttpFrontend::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  scope_->Close([this] {
    std::vector<ConnectionPtr> open;
    open.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) {
      open.push_back(conn);
    }
    for (const ConnectionPtr& conn : open) {
      CloseConnection(conn);
    }
  });
  close(listen_fd_);
  listen_fd_ = -1;
}

void HttpFrontend::OnAcceptable() {
  dnet::AcceptAll(scope_.get(), listen_fd_, [this](int fd) {
    if (connections_.size() >= config_.max_connections) {
      // One non-blocking send: a freshly accepted socket's empty send
      // buffer always holds this small response. Then respond-then-drain,
      // non-blocking flavour: signal end-of-response, and clear whatever
      // request bytes already arrived so close() does not RST the 503 out
      // of the client's receive buffer. Bytes still in flight can race the
      // close; waiting for them is not worth it on an overloaded node.
      const std::string busy =
          dhttp::HttpResponse::Make(503, "Service Unavailable", "connection limit\n")
              .Serialize();
      (void)send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      shutdown(fd, SHUT_WR);
      char sink[4096];
      while (read(fd, sink, sizeof(sink)) > 0) {
      }
      close(fd);
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->armed_events = EPOLLIN;
    conn->last_activity = dbase::MonotonicClock::Get()->NowMicros();
    connections_[fd] = conn;
    const dbase::Status added =
        scope_->Add(fd, EPOLLIN, [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!added.ok()) {
      connections_.erase(fd);
      close(fd);
      return;
    }
    ArmIdleTimer(conn);
  });
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
  // Read budget: without a bound, one connection's upload would also
  // buffer unboundedly ahead of the pipeline-depth backpressure.
  size_t budget_used = 0;
  char chunk[kReadChunkBytes];
  bool got_bytes = false;
  bool saw_eof = false;
  while (budget_used < dnet::kReadBudget) {
    // Body mode reads land in the request's body region, in place; all
    // else goes through `chunk` into `in`.
    Connection::BodyRegion& body = conn->body;
    const bool into_body = body.data != nullptr && body.filled < body.size;
    const ssize_t n =
        into_body ? read(conn->fd, body.data + body.filled,
                         std::min(body.size - body.filled, dnet::kReadBudget - budget_used))
                  : read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      got_bytes = true;
      budget_used += static_cast<size_t>(n);
      if (into_body) {
        body.filled += static_cast<size_t>(n);
      } else if (conn->state == Connection::State::kDraining) {
        conn->drained_bytes += static_cast<size_t>(n);
        if (conn->drained_bytes > kMaxDrainBytes) {
          CloseConnection(conn);
          return;
        }
        continue;  // Discard: only waiting for the client to finish/close.
      } else {
        conn->in.append(chunk, static_cast<size_t>(n));
      }
      // Body bytes are charged as they land, like `in` bytes: the region
      // is MAP_NORESERVE, so only pages read(2) wrote are committed.
      total_buffered_bytes_ += static_cast<size_t>(n);
      if (total_buffered_bytes_ > config_.max_total_buffered_bytes) {
        // Platform-wide buffering budget breached: this connection's
        // bytes are the ones that tipped it, so it takes the 503.
        FailConnection(conn, dhttp::HttpResponse::Make(503, "Service Unavailable",
                                                       "request buffers full"));
        ReleaseDeadInput(conn);
        return;
      }
      if (!into_body && conn->in.size() >= sizeof(chunk) &&
          conn->state == Connection::State::kReading) {
        // Parse now rather than after the whole read budget, so that a
        // large body's head switches the connection to body mode before
        // more than two chunks of that body went through `in`.
        ProcessInput(conn);
        if (conn->fd < 0) {
          return;
        }
        if (conn->state != Connection::State::kReading) {
          break;  // Stopped or draining: the next turn reads on its terms.
        }
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
  bool completed_any = false;
  while (progressed && conn->state == Connection::State::kReading) {
    progressed = false;
    // A body region that is full holds the oldest unserved request: body
    // mode is entered only with nothing else buffered, and later bytes
    // queue in `in` behind it.
    const bool body_done = conn->body.data != nullptr && conn->body.filled == conn->body.size;
    if (body_done) {
      FinishBody(conn);
      if (conn->fd < 0) {
        return;
      }
    }
    size_t consumed = 0;
    std::optional<dhttp::MessageHead> partial;  // Head in, body not.
    while (conn->body.data == nullptr && conn->state == Connection::State::kReading &&
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
      const size_t body_bytes = static_cast<size_t>(framing.content_length);
      const size_t total = framing.head_bytes + body_bytes;
      if (total > config_.max_total_buffered_bytes) {
        // More than the whole budget: this request could never be buffered.
        FailConnection(conn, dhttp::HttpResponse::Make(503, "Service Unavailable",
                                                       "request buffers full"));
        break;
      }
      if (pending.size() < total) {
        // Incomplete body: a large rest goes to a region of its own.
        if (total - pending.size() > kReadChunkBytes) {
          partial = framing;
        }
        break;
      }
      // A request that arrived whole is copied once, out of `in`.
      const std::string_view body = pending.substr(framing.head_bytes, body_bytes);
      consumed += framing.head_bytes + body_bytes;
      if (!HandleRequest(conn, pending.substr(0, framing.head_bytes),
                         body.empty() ? dbase::BufferSlice()
                                      : dbase::BufferSlice(dbase::Buffer::Copy(body)))) {
        break;
      }
    }
    if (conn->fd < 0) {
      return;
    }
    if (consumed > 0) {
      conn->in.erase(0, consumed);
      total_buffered_bytes_ -= consumed;
    }
    if (partial.has_value() && conn->state == Connection::State::kReading) {
      EnterBodyMode(conn, *partial);  // The partial request now starts `in`.
      if (conn->fd < 0) {
        return;
      }
    }
    completed_any = completed_any || body_done || consumed > 0;
    const size_t slots_before = conn->pipeline.size();
    FlushPipeline(conn);  // Answer everything completed inline in one write.
    if (conn->fd < 0) {
      return;
    }
    // Consumed bytes and popped slots are both monotone, so requiring one
    // of them per pass guarantees termination.
    progressed = body_done || consumed > 0 || conn->pipeline.size() < slots_before;
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
    if (conn->in.empty() && conn->body.data == nullptr) {
      conn->partial_since = 0;
    } else if (conn->partial_since == 0 || completed_any) {
      conn->partial_since = dbase::MonotonicClock::Get()->NowMicros();
    }
    UpdateInterest(conn);
  }
}

void HttpFrontend::EnterBodyMode(const ConnectionPtr& conn, const dhttp::MessageHead& framing) {
  const size_t size = static_cast<size_t>(framing.content_length);
  void* region = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) {
    FailConnection(conn, dhttp::HttpResponse::Make(503, "Service Unavailable",
                                                   "request buffers full"));
    return;
  }
  // The head and body prefix move out of `in` and keep their charge.
  Connection::BodyRegion& body = conn->body;
  body.head = conn->in.substr(0, framing.head_bytes);
  body.data = static_cast<char*>(region);
  body.size = size;
  body.filled = conn->in.size() - framing.head_bytes;
  std::memcpy(body.data, conn->in.data() + framing.head_bytes, body.filled);
  conn->in.clear();
}

void HttpFrontend::FinishBody(const ConnectionPtr& conn) {
  Connection::BodyRegion body = std::exchange(conn->body, {});
  total_buffered_bytes_ -= body.head.size() + body.size;
  // The last slice of the body unmaps the region.
  std::shared_ptr<char> owner(body.data,
                              [size = body.size](char* region) { munmap(region, size); });
  HandleRequest(conn, body.head,
                dbase::BufferSlice(dbase::Buffer::Wrap(body.data, body.size, std::move(owner))));
}

void HttpFrontend::DropBody(const ConnectionPtr& conn) {
  Connection::BodyRegion body = std::exchange(conn->body, {});
  if (body.data == nullptr) {
    return;
  }
  total_buffered_bytes_ -= body.head.size() + body.filled;
  munmap(body.data, body.size);
}

bool HttpFrontend::HandleRequest(const ConnectionPtr& conn, std::string_view head,
                                 dbase::BufferSlice body) {
  // ScanMessageHead framed `body` by the same Content-Length rule the head
  // parse applies (net_fuzz_test checks that the two agree).
  auto parsed = dhttp::ParseRequestHead(head);
  if (!parsed.ok()) {
    // The framing was consistent but the request itself is malformed;
    // answer 400 and close (resynchronizing a pipelined stream after a bad
    // request is not worth the ambiguity).
    FailConnection(conn, dhttp::HttpResponse::BadRequest(parsed.status().ToString()));
    return false;
  }
  const dhttp::HttpRequest& request = parsed->request;
  const std::string& target = request.target;

  auto slot = std::make_shared<Connection::ResponseSlot>();
  conn->pipeline.push_back(slot);
  if (!WantsKeepAlive(request)) {
    conn->state = Connection::State::kStopped;  // Flush, then close.
  }

  if (request.method == dhttp::Method::kGet && target == "/healthz") {
    FinishSlot(conn, slot, dhttp::HttpResponse::Ok("ok\n"));
  } else if (request.method == dhttp::Method::kGet && target == "/compositions") {
    dbase::JsonWriter json;
    json.BeginObject().BeginArray("compositions");
    for (const std::string& name : platform_->registry().CompositionNames()) {
      json.Value(name);
    }
    json.EndArray().EndObject();
    dhttp::HttpResponse response = dhttp::HttpResponse::Ok(json.Take() + "\n");
    response.headers.Set("Content-Type", "application/json");
    FinishSlot(conn, slot, response);
  } else if (request.method == dhttp::Method::kGet && target == "/statz") {
    dhttp::HttpResponse response = dhttp::HttpResponse::Ok(StatzJson());
    response.headers.Set("Content-Type", "application/json");
    FinishSlot(conn, slot, response);
  } else if (request.method == dhttp::Method::kPost && target == "/register/composition") {
    const dbase::Status status = platform_->RegisterCompositionDsl(body.view());
    FinishSlot(conn, slot,
               status.ok() ? dhttp::HttpResponse::Make(201, "Created", "registered\n")
                           : dhttp::HttpResponse::BadRequest(status.ToString()));
  } else if (request.method == dhttp::Method::kPost && target.rfind("/invoke/", 0) == 0) {
    DispatchInvoke(conn, slot, request, std::move(body));
  } else {
    FinishSlot(conn, slot, dhttp::HttpResponse::NotFound("unknown endpoint: " + target));
  }
  return conn->fd >= 0 && conn->state == Connection::State::kReading;
}

void HttpFrontend::DispatchInvoke(const ConnectionPtr& conn, const SlotPtr& slot,
                                  const dhttp::HttpRequest& request, dbase::BufferSlice body) {
  const std::string composition = request.target.substr(std::strlen("/invoke/"));

  // Request class and deadline come off the headers before any expensive
  // work: a shed or malformed request must cost the node nothing.
  PriorityClass priority = PriorityClass::kInteractive;
  if (const auto header = request.headers.Get("X-Dandelion-Priority"); header.has_value()) {
    auto parsed = PriorityClassFromName(*header);
    if (!parsed.ok()) {
      FinishSlot(conn, slot, dhttp::HttpResponse::BadRequest(parsed.status().ToString()));
      return;
    }
    priority = *parsed;
  }
  dbase::Micros deadline_us = 0;
  if (const auto header = request.headers.Get("X-Dandelion-Deadline-Ms"); header.has_value()) {
    int64_t ms = 0;
    if (!dbase::ParseInt64(*header, &ms) || ms <= 0) {
      FinishSlot(conn, slot, dhttp::HttpResponse::BadRequest("invalid X-Dandelion-Deadline-Ms"));
      return;
    }
    deadline_us = InvocationRequest::DeadlineIn(
        std::min(ms, InvocationRequest::kMaxDeadlineInUs / dbase::kMicrosPerMilli) *
        dbase::kMicrosPerMilli);
  }

  // Per-class admission control: reject early with 429 once the class's
  // in-flight cap is reached, instead of queueing blindly until buffers or
  // clients give up. The completion runs on the reactor (inline, on an
  // immediate failure), possibly after Stop() or the frontend's
  // destruction: it touches only what it captured, and it runs through the
  // scope, which drops it once the frontend has stopped, so `this` is only
  // ever used on a live frontend.
  Dispatcher::ResultCallback completion = ingress_.Admit(
      priority, [this, scope = scope_, weak_conn = std::weak_ptr<Connection>(conn),
                 slot](dbase::Result<dfunc::DataSetList> result) {
        scope->Run([&] {
          ApplySlotCompletion(weak_conn, slot, InvocationResponseWire(std::move(result)));
        });
      });
  if (completion == nullptr) {
    FinishSlot(conn, slot,
               dhttp::HttpResponse::Make(429, "Too Many Requests",
                                         "admission control: " +
                                             std::string(PriorityClassName(priority)) +
                                             " in-flight cap reached\n"));
    return;
  }

  // Zero-copy ingest: argument payloads are slices of the body buffer,
  // which stays alive — pinned by the item refcounts — until the last node
  // consuming those bytes completes. Each body byte was copied once on the
  // way in: a body still missing more than one read chunk when its head
  // was parsed went from the socket straight into its own region (only the
  // prefix that came with its head passed through `in`), and any other
  // body was copied out of `in` once it was whole. The two rejects below
  // drop the unrun completion, which frees its admission slot.
  dfunc::DataSetList args;
  if (request.headers.Get("X-Dandelion-Raw").has_value()) {
    // Plain-text convenience: the body becomes the single item of a set
    // named after the composition's first parameter.
    auto graph = platform_->registry().Lookup(composition);
    if (!graph.ok() || graph.value()->params().empty()) {
      FinishSlot(conn, slot, dhttp::HttpResponse::NotFound("unknown composition"));
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
      FinishSlot(conn, slot, dhttp::HttpResponse::BadRequest(unmarshalled.status().ToString()));
      return;
    }
    args = std::move(unmarshalled).value();
  }

  InvocationRequest invocation;
  invocation.composition = composition;
  invocation.args = std::move(args);
  invocation.deadline_us = deadline_us;
  invocation.priority = priority;

  // Cluster route: load-balanced placement across local + remote nodes,
  // with cross-node shed/peer-lost re-routing, behind the same callback.
  // The handle lets a dying connection cancel the invocation instead of
  // letting orphaned work run to completion.
  if (cluster_ != nullptr) {
    slot->handle = cluster_->InvokeAsync(
        std::move(invocation),
        [completion = std::move(completion)](dbase::Result<dfunc::DataSetList> result,
                                             int /*node*/) { completion(std::move(result)); });
  } else {
    slot->handle = platform_->Submit(std::move(invocation), std::move(completion));
  }
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
    scope_->Post([this] { FlushDirtyConnections(); });
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
  DropBody(conn);
  conn->partial_since = 0;
}

bool HttpFrontend::AccountResponseBytes(const ConnectionPtr& conn, size_t bytes) {
  total_response_bytes_ += bytes;
  if (total_response_bytes_ > kMaxTotalResponseBytes) {
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
    for (auto& chunk : conn->pipeline.front()->bytes.chunks) {
      conn->out.Push(std::move(chunk));
    }
    conn->pipeline.pop_front();
  }
  TryWrite(conn);
}

void HttpFrontend::TryWrite(const ConnectionPtr& conn) {
  const size_t unsent = conn->out.pending();
  const dbase::Result<size_t> sent = conn->out.Flush(conn->fd);
  // What left the queue leaves the budget, even ahead of a hard error.
  total_response_bytes_ -= unsent - conn->out.pending();
  if (!sent.ok()) {
    CloseConnection(conn);  // Hard error: the peer is gone.
    return;
  }
  if (*sent > 0) {
    // Write progress counts as liveness for the idle timer: a client
    // consuming a large response slowly is slow, not stalled.
    conn->last_activity = dbase::MonotonicClock::Get()->NowMicros();
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
  if (!scope_->Modify(conn->fd, events).ok()) {
    CloseConnection(conn);
  }
}

void HttpFrontend::ArmIdleTimer(const ConnectionPtr& conn) {
  std::weak_ptr<Connection> weak_conn = conn;
  conn->idle_timer = scope_->AddTimer(config_.idle_timeout, [this, weak_conn] {
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
  scope_->AddTimer(kDrainTimeout, [this, weak_conn] {
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
  DropBody(conn);
  // Release this connection's share of the response budget: the unsent
  // chunk tail plus every completed slot (not-yet-completed slots were
  // never counted, and their completions see the dead connection).
  total_response_bytes_ -= conn->out.pending();
  for (const SlotPtr& slot : conn->pipeline) {
    if (slot->ready) {
      total_response_bytes_ -= slot->bytes.total_bytes;
    }
  }
  scope_->CancelTimer(conn->idle_timer);
  scope_->Remove(conn->fd);
  close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;
  // The client is gone: cancel every invocation still running on its
  // behalf so orphaned work stops consuming engines.
  for (const SlotPtr& slot : conn->pipeline) {
    if (slot->ready) {
      continue;
    }
    if (slot->handle.valid() && !slot->handle.done()) {
      ++disconnect_cancelled_;
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
  dbase::JsonWriter json;
  json.BeginObject().BeginObject("engine")
      .Field("compute_tasks", engine.compute_tasks)
      .Field("comm_tasks", engine.comm_tasks)
      .Field("compute_aborted", engine.compute_aborted)
      .Field("comm_aborted", engine.comm_aborted)
      .Field("compute_queue_len", engine.compute_queue_len)
      .Field("comm_queue_len", engine.comm_queue_len)
      .Field("compute_workers", engine.compute_workers)
      .Field("comm_workers", engine.comm_workers)
      .Field("child_cpu_p50_us", engine.child_cpu_p50_us)
      .Field("child_cpu_p99_us", engine.child_cpu_p99_us)
      .EndObject();
  json.BeginObject("dispatcher")
      .Field("invocations_started", dispatcher.invocations_started)
      .Field("invocations_completed", dispatcher.invocations_completed)
      .Field("invocations_failed", dispatcher.invocations_failed)
      .Field("invocations_cancelled", dispatcher.invocations_cancelled)
      .Field("invocations_deadline_exceeded", dispatcher.invocations_deadline_exceeded)
      .Field("compute_instances", dispatcher.compute_instances)
      .Field("comm_instances", dispatcher.comm_instances)
      .Field("skipped_instances", dispatcher.skipped_instances)
      .Field("inflight_interactive", dispatcher.inflight_interactive)
      .Field("inflight_batch", dispatcher.inflight_batch)
      .EndObject();
  const Ingress::Stats ingress = ingress_.stats();
  json.BeginObject("frontend")
      .Field("open_connections", connections_.size())
      .Field("inflight_interactive",
             ingress.inflight[static_cast<size_t>(PriorityClass::kInteractive)])
      .Field("inflight_batch", ingress.inflight[static_cast<size_t>(PriorityClass::kBatch)])
      .Field("served", ingress.served)
      .Field("shed_429", ingress.shed)
      .Field("deadline_504", ingress.deadline_exceeded)
      .Field("disconnect_cancelled", disconnect_cancelled_)
      .EndObject();
  json.BeginObject("data_plane")
      .Field("bytes_copied", dispatcher.bytes_copied)
      .Field("bytes_aliased", dispatcher.bytes_aliased)
      .Field("binding_materializations", dispatcher.binding_materializations)
      .EndObject();
  // Policy names and reasons come from user-suppliable policy objects, and
  // the signal may be any double: the writer escapes the strings and turns
  // a non-finite signal into null.
  json.BeginObject("control_plane");
  if (ControlPlane* control = platform_->control_plane(); control != nullptr) {
    const ControlPlane::Summary summary = control->GetSummary();
    json.Field("enabled", true)
        .Field("policy", summary.policy_name)
        .Field("compute_workers", engine.compute_workers)
        .Field("comm_workers", engine.comm_workers)
        .Field("decisions", summary.decisions)
        .Field("shifts_toward_compute", summary.shifts_toward_compute)
        .Field("shifts_toward_comm", summary.shifts_toward_comm);
    if (summary.decisions > 0) {
      json.BeginObject("last_decision")
          .Field("time_us", summary.last.time_us)
          .Field("signal", summary.last.action.signal)
          .Field("shift_toward_compute", summary.last.action.shift_toward_compute)
          .Field("shifted", summary.last.shifted)
          .Field("panic", summary.last.action.panic)
          .Field("reason", summary.last.action.reason)
          .EndObject();
    }
  } else {
    json.Field("enabled", false)
        .Field("compute_workers", engine.compute_workers)
        .Field("comm_workers", engine.comm_workers);
  }
  json.EndObject();
  // Fault containment: jail capability, injected faults, retry/breaker
  // activity. `enabled` means this platform's process children run jailed:
  // a Platform always requires the jail, so it is the probe's answer, and
  // without seccomp the process backend fails every instance instead.
  const SandboxCapabilities& caps = SandboxCapabilities::Get();
  json.BeginObject("jail")
      .Field("seccomp_filter", caps.seccomp_filter)
      .Field("enabled", caps.seccomp_filter)
      .Field("detail", caps.detail)
      .EndObject();
  json.BeginObject("faults");
  for (const FaultPointSnapshot& point : FaultInjector::Get().Snapshot()) {
    json.BeginObject(FaultPointName(point.point))
        .Field("armed", point.armed)
        .Field("crossings", point.crossings)
        .Field("fired", point.fired)
        .EndObject();
  }
  json.EndObject();
  json.BeginObject("retries")
      .Field("sandbox_failures", dispatcher.sandbox_failures)
      .Field("attempted", dispatcher.retries_attempted)
      .Field("denied", dispatcher.retries_denied)
      .EndObject();
  json.BeginObject("breaker")
      .Field("fast_fails", dispatcher.breaker_fast_fails)
      .Field("trips", dispatcher.breaker_trips)
      .Field("recoveries", dispatcher.breaker_recoveries)
      .Field("open", dispatcher.breakers_open)
      .BeginObject("functions");
  for (const dpolicy::BreakerSnapshot& breaker : platform_->breaker_snapshots()) {
    json.BeginObject(breaker.function)
        .Field("state", dpolicy::BreakerStateName(breaker.state))
        .Field("consecutive_failures", breaker.consecutive_failures)
        .EndObject();
  }
  json.EndObject().EndObject();
  // Distributed data plane: router-side view of every cluster node — wire
  // counters from the NodeClient, membership state + gossip staleness, and
  // the cross-node re-route activity.
  json.BeginObject("cluster");
  if (cluster_ != nullptr) {
    const Cluster::ClusterStats cluster = cluster_->Stats();
    json.Field("enabled", true)
        .Field("reroutes_shed", cluster.reroutes_shed)
        .Field("reroutes_peer_lost", cluster.reroutes_peer_lost)
        .Field("reroute_denied", cluster.reroute_denied)
        .Field("no_eligible_node", cluster.no_eligible_node)
        .Field("gossip_rounds", cluster.gossip_rounds)
        .Field("members_suspected", cluster.membership.suspects)
        .Field("members_evicted", cluster.membership.evictions)
        .Field("members_rejoined", cluster.membership.rejoins)
        .BeginObject("peers");
    for (const Cluster::PeerStats& peer : cluster.peers) {
      json.BeginObject(peer.name)
          .Field("remote", peer.remote)
          .Field("state", peer.state)
          .Field("served", peer.served)
          .Field("inflight", peer.inflight)
          .Field("invokes_sent", peer.invokes_sent)
          .Field("sheds_received", peer.sheds_received)
          .Field("peer_lost_failures", peer.peer_lost_failures)
          .Field("bytes_sent", peer.bytes_sent)
          .Field("bytes_received", peer.bytes_received)
          .Field("gossip_age_us", peer.gossip_age_us)
          .Field("remote_inflight", peer.remote_inflight)
          .Field("remote_admission_cap", peer.remote_admission_cap)
          .Field("utilization", peer.utilization)
          .EndObject();
    }
    json.EndObject();
  } else {
    json.Field("enabled", false);
  }
  json.EndObject().EndObject();
  return json.Take() + "\n";
}

}  // namespace dandelion
