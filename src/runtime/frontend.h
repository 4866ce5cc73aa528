// HTTP frontend (Figure 4): "manages client communication, handling
// requests for composition/function registration and invocation". An
// epoll-driven HTTP/1.1 server on the process reactor
// (dbase::EventLoop::Process(), shared with the dnet wire), registered
// through the frontend's own scope:
//
//   POST /invoke/<composition>      body: marshalled DataSetList (binary) or
//                                   plain text (becomes the first param's
//                                   single item when X-Dandelion-Raw: 1).
//                                   X-Dandelion-Deadline-Ms: <n> sets a
//                                   relative deadline (504 when exceeded);
//                                   X-Dandelion-Priority: interactive|batch
//                                   picks the request class. Per-class
//                                   admission control sheds with 429; a
//                                   platform that cannot serve it now
//                                   (kUnavailable) answers 503; a client
//                                   whose connection dies has its
//                                   in-flight invocations cancelled.
//   POST /register/composition     body: DSL source text
//   GET  /healthz                  liveness probe
//   GET  /compositions             registered composition names (JSON)
//   GET  /statz                    engine/dispatcher/frontend counters plus
//                                  the control plane's policy, current
//                                  compute/comm core split, and last
//                                  elasticity decision (JSON)
//
// Both JSON endpoints write through dbase::JsonWriter (escaped strings, a
// non-finite double as null); FrontendTest.StatzSchemaIsPinned pins the
// /statz keys, their nesting, types and order.
//
// Sockets go through the dnet socket layer (src/net/socket.h): one
// listener, AcceptAll, and a SendQueue per connection for gathered,
// non-blocking response writes, so no socket call stalls the reactor.
// Connections are non-blocking with keep-alive and pipelining: requests are
// parsed incrementally as bytes arrive, invocations are dispatched inline
// on the reactor through Platform::Submit (or the attached Cluster), and
// each completion, which the dispatcher or the router runs on the reactor,
// is written out in request order — the reactor never blocks on engine
// work, so one slow invocation cannot stall other connections.
// Responses carry marshalled DataSetList bodies for invocations.
#ifndef SRC_RUNTIME_FRONTEND_H_
#define SRC_RUNTIME_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/status.h"
#include "src/http/http_message.h"
#include "src/http/http_parser.h"
#include "src/net/socket.h"
#include "src/runtime/ingress.h"
#include "src/runtime/invocation.h"
#include "src/runtime/platform.h"

namespace dandelion {

class Cluster;

struct FrontendConfig {
  // port 0 lets the kernel pick; the bound port is then readable via port().
  uint16_t port = 0;
  // A connection that makes no read progress for this long is closed
  // (slowloris guard; also reaps idle keep-alive connections).
  dbase::Micros idle_timeout = 10 * dbase::kMicrosPerSecond;
  // Absolute bound on how long one request may take to arrive once its
  // first byte is in: defeats trickle-slowloris clients that keep beating
  // the inactivity check with one byte per idle_timeout. Enforced with up
  // to idle_timeout of lag (the reaper shares the idle timer).
  dbase::Micros request_timeout = 30 * dbase::kMicrosPerSecond;
  // Beyond this many open connections, new accepts get an immediate 503
  // (one non-blocking send) and are closed.
  size_t max_connections = 1024;
  // Aggregate cap on not-yet-consumed request bytes across ALL
  // connections: the per-request 64 MiB body cap times max_connections
  // would otherwise let a fleet of hostile clients buffer tens of GiB. A
  // connection whose read would breach the budget is failed with 503.
  size_t max_total_buffered_bytes = 256 * 1024 * 1024;
  // Pipelining backpressure: stop reading from a connection once this many
  // requests are awaiting responses on it.
  size_t max_pipeline_depth = 64;
  // Admission control: cap on invocations of each class in flight through
  // this frontend. A request arriving at a full class is shed immediately
  // with 429 instead of queueing blindly — under overload the platform
  // degrades by rejecting cheap and early. 0 = uncapped.
  size_t max_inflight_interactive = 256;
  size_t max_inflight_batch = 256;
};

// A response as an ordered chunk sequence for a connection's SendQueue:
// framing/header chunks own their bytes via refcounted buffers, large
// payload chunks alias the marshalled set slices directly — the frontend
// never concatenates a big response into one contiguous string.
struct WireChunks {
  std::vector<dbase::BufferSlice> chunks;
  size_t total_bytes = 0;

  void Append(dbase::BufferSlice chunk) {
    total_bytes += chunk.size();
    chunks.push_back(std::move(chunk));
  }
  static WireChunks FromString(std::string bytes) {
    WireChunks wire;
    wire.Append(dbase::BufferSlice(dbase::Buffer::FromString(std::move(bytes))));
    return wire;
  }
};

class HttpFrontend {
 public:
  explicit HttpFrontend(Platform* platform, FrontendConfig config);
  HttpFrontend(Platform* platform, uint16_t port = 0);
  ~HttpFrontend();

  HttpFrontend(const HttpFrontend&) = delete;
  HttpFrontend& operator=(const HttpFrontend&) = delete;

  // Binds, listens, and starts accepting on the reactor.
  dbase::Status Start();
  // Closes every connection (cancelling the invocations they were owed)
  // and deregisters from the reactor; completions still in flight are
  // dropped, so the frontend may be destroyed as soon as this returns.
  void Stop();

  // Routes invokes through a cluster (load-balanced dispatch + cross-node
  // shedding over the dnet wire) instead of submitting straight to the
  // local platform. The attached platform keeps serving registration,
  // statz. Call before Start(); the cluster must outlive the
  // frontend. /statz grows a "cluster" section with per-peer wire and
  // membership counters; the wire counters are the NodeClient's live
  // PeerCounters, loaded when /statz is read.
  void AttachCluster(Cluster* cluster) { cluster_ = cluster; }

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  // Per-connection state machine, mutated only on the reactor. Held by
  // shared_ptr so async completions can hold a weak_ptr that expires when
  // the connection closes first.
  struct Connection {
    int fd = -1;
    enum class State {
      kReading,   // Parsing pipelined requests out of `in`.
      kStopped,   // No further requests accepted (Connection: close, a
                  // framing error queued, or the client half-closed);
                  // pending responses still flush in order.
      kDraining,  // Error response flushed, SHUT_WR done; discarding the
                  // client's in-flight body so the response isn't RST-lost.
    };
    State state = State::kReading;
    // Received, not-yet-consumed bytes: heads and small pipelined
    // requests. A large body never lands here (see `body`).
    std::string in;
    // Body mode: a request whose head is complete but whose body still
    // misses more than one read chunk reads the rest of its body straight
    // from the socket into its own page-backed region of exactly
    // Content-Length bytes. The region becomes the request's body buffer,
    // and is unmapped when its last slice drops.
    struct BodyRegion {
      std::string head;      // The request's bytes up to its body.
      char* data = nullptr;  // nullptr: not in body mode.
      size_t size = 0;       // Content-Length.
      size_t filled = 0;     // Bytes written so far.
    };
    BodyRegion body;
    // Response chunks awaiting write; out.pending() is the
    // budget-accounting quantity.
    dnet::SendQueue out;
    bool HasPendingOut() const { return out.pending() > 0; }
    // One slot per accepted request, in arrival order; a slot's response
    // may complete out of order but is written only at the queue head.
    struct ResponseSlot {
      bool ready = false;
      WireChunks bytes;
      // Invocation attached to this slot, if any: a dying connection
      // cancels it.
      InvocationHandle handle;
    };
    std::deque<std::shared_ptr<ResponseSlot>> pipeline;
    uint32_t armed_events = 0;  // Interest set currently registered.
    bool flush_queued = false;  // Already on the deferred-flush list.
    // Client half-closed. Unlike kStopped, already-buffered complete
    // requests are still parsed and answered (as backpressure slots free
    // up); the connection closes once nothing parseable remains.
    bool saw_eof = false;
    // When the buffered partial request's first byte arrived (0 = no
    // partial pending); drives FrontendConfig::request_timeout.
    dbase::Micros partial_since = 0;
    // After everything flushed: drain before closing (framing-error path).
    bool drain_requested = false;
    dbase::Micros last_activity = 0;  // For the idle timer.
    dbase::EventLoop::TimerId idle_timer = 0;
    size_t drained_bytes = 0;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;
  using SlotPtr = std::shared_ptr<Connection::ResponseSlot>;

  // All of the below run on the reactor.
  void OnAcceptable();
  void OnConnectionEvent(const ConnectionPtr& conn, uint32_t events);
  void OnReadable(const ConnectionPtr& conn);
  void ProcessInput(const ConnectionPtr& conn);
  // Serves one complete request: its head bytes and its whole body.
  // Returns false when the connection stopped accepting further requests.
  bool HandleRequest(const ConnectionPtr& conn, std::string_view head,
                     dbase::BufferSlice body);
  // Switches a connection whose `in` holds exactly one request, with its
  // head complete and its body not, to body mode: maps the region (503
  // when that fails) and moves the body prefix out of `in`. Body bytes are
  // charged to the buffering budget as they land, as `in` bytes are.
  void EnterBodyMode(const ConnectionPtr& conn, const dhttp::MessageHead& framing);
  // Hands a completely read body region to HandleRequest and leaves body
  // mode.
  void FinishBody(const ConnectionPtr& conn);
  // Leaves body mode without serving the request: unmaps the region and
  // releases its charge.
  void DropBody(const ConnectionPtr& conn);
  // POST /invoke/<composition>: resolves the arguments and hands the work
  // to Platform::Submit (or the cluster); the completion runs on the
  // reactor, through the scope. Never blocks: engine work is async, only the dispatch setup
  // happens here. Early rejections finish the slot like FinishSlot.
  void DispatchInvoke(const ConnectionPtr& conn, const SlotPtr& slot,
                      const dhttp::HttpRequest& request, dbase::BufferSlice body);
  void FinishSlot(const ConnectionPtr& conn, const SlotPtr& slot,
                  const dhttp::HttpResponse& response);
  // Accounts a newly-completed response against the response budget;
  // closes the connection (and returns false) when it tips the total over
  // kMaxTotalResponseBytes.
  bool AccountResponseBytes(const ConnectionPtr& conn, size_t bytes);
  // Reactor half of an invocation's completion: marks the slot ready and
  // queues the connection for a deferred flush, so a burst of completions
  // costs one write() per connection instead of one per response.
  void ApplySlotCompletion(const std::weak_ptr<Connection>& weak_conn, const SlotPtr& slot,
                           WireChunks bytes);
  void FlushDirtyConnections();
  // Queues an error response for a request whose body was never consumed,
  // then transitions to respond → SHUT_WR → bounded drain → close, so a
  // well-behaved client reads the error instead of a connection reset.
  void FailConnection(const ConnectionPtr& conn, dhttp::HttpResponse response);
  void FlushPipeline(const ConnectionPtr& conn);
  // Once a connection stops parsing (kStopped/kDraining), its buffered
  // input (and any body region) is dead weight: release it and its budget
  // share immediately so one failed upload cannot 503-cascade onto other
  // connections for the whole drain window. Callers must hold no views
  // into conn->in.
  void ReleaseDeadInput(const ConnectionPtr& conn);
  void TryWrite(const ConnectionPtr& conn);
  void UpdateInterest(const ConnectionPtr& conn);
  void ArmIdleTimer(const ConnectionPtr& conn);
  // Closes a half-closed (saw_eof) connection once everything answerable
  // has been answered and flushed.
  void MaybeFinishEof(const ConnectionPtr& conn);
  void BeginDrain(const ConnectionPtr& conn);
  void CloseConnection(const ConnectionPtr& conn);

  // Builds the GET /statz JSON snapshot through dbase::JsonWriter (reactor
  // only).
  std::string StatzJson() const;

  Platform* platform_;
  Cluster* cluster_ = nullptr;  // Optional invoke route; not owned.
  FrontendConfig config_;
  uint16_t port_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  // One per Start(). Shared with invocation completions, which may fire
  // after Stop() and then find it closed.
  std::shared_ptr<dbase::EventLoop::Scope> scope_;
  std::unordered_map<int, ConnectionPtr> connections_;  // Reactor only.
  std::vector<ConnectionPtr> dirty_connections_;        // Reactor only.
  bool flush_scheduled_ = false;                        // Reactor only.
  // Sum of all connections' `in` buffers and body regions (reactor only);
  // enforces FrontendConfig::max_total_buffered_bytes.
  size_t total_buffered_bytes_ = 0;
  // Sum of completed-but-unsent response bytes (ready slots + unsent
  // `out` tails) across connections (reactor only); enforces
  // kMaxTotalResponseBytes (frontend.cc).
  size_t total_response_bytes_ = 0;
  Ingress ingress_;  // Admits every invoke.
  // Invokes cancelled by their client's disconnect (reactor only).
  uint64_t disconnect_cancelled_ = 0;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_FRONTEND_H_
