// The dnet node wire (ROADMAP "Distributed data plane"): the compact
// length-prefixed RPC framing frontend and engine nodes speak over TCP.
// Every frame is a fixed 24-byte header followed by `body_len` body bytes:
//
//   offset  size  field
//   0       4     magic 0x444E4554 ("DNET", little-endian on the wire)
//   4       1     protocol version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     flags (FrameFlags bits)
//   8       4     body length in bytes (bounded by FrameLimits)
//   12      4     reserved (must be zero)
//   16      8     request id — correlates a request frame with its reply
//
// Integers are little-endian. The framing is deliberately *not* HTTP:
// node-to-node calls are homogeneous, high-rate, and carry marshalled
// DataSetLists whose large payloads must flow through writev as slices of
// their existing buffers (send) and be aliased straight out of the receive
// buffer (UnmarshalSets over a BufferSlice) — a text protocol with
// header parsing, chunked encodings, and per-message allocation on this
// path would buy nothing but copies (DESIGN.md records the rationale).
//
// Body parsing is checked, never clamping: a truncated, oversized, or
// corrupt frame surfaces as kInvalidArgument and the connection is dropped
// — hostile bytes must not become short reads (same contract as
// BufferSlice::Make).
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/data.h"

namespace dnet {

inline constexpr uint32_t kWireMagic = 0x444E4554u;  // "DNET"
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 24;

enum class FrameType : uint8_t {
  kJoin = 1,       // client → server: hello (node name); expects kJoinAck.
  kJoinAck = 2,    // server → client: accepted (server's node name).
  kLeave = 3,      // either side: graceful drain notice; no reply.
  kInvoke = 4,     // client → server: composition invocation.
  kOutcome = 5,    // server → client: invocation result.
  kCancel = 6,     // client → server: cancel the invocation with this id.
  kGossipReq = 7,  // client → server: request a status snapshot.
  kGossip = 8,     // server → client: load and admission headroom.
};

// Frame flag bits.
inline constexpr uint16_t kFlagShed = 1u << 0;  // kOutcome: admission shed —
                                                // the peer refused the work
                                                // at its caps; re-routable.

struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kJoin;
  uint16_t flags = 0;
  uint32_t body_len = 0;
  uint64_t request_id = 0;
};

// Per-connection frame bounds. The body cap mirrors the HTTP frontend's
// 64 MiB request-body cap plus marshalling slack; a hostile length field
// beyond it kills the connection before any buffering happens.
struct FrameLimits {
  uint32_t max_body_bytes = 72u * 1024 * 1024;
};

// Encodes `header` into exactly kFrameHeaderBytes.
std::string EncodeFrameHeader(const FrameHeader& header);

// Decodes a header from `bytes` (must hold >= kFrameHeaderBytes). Checks
// magic, version, known type, reserved-zero, and the body-length bound.
dbase::Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                             const FrameLimits& limits);

// ------------------------------------------------------------------ invoke

// One remote composition invocation as it travels the wire. The deadline is
// *relative* (microseconds remaining at send time): absolute monotonic
// timestamps do not transfer between processes.
struct WireInvoke {
  std::string composition;
  dfunc::DataSetList args;
  dbase::Micros remaining_deadline_us = 0;  // 0 = none.
  uint8_t priority = 0;                     // PriorityClass underlying value.
  uint64_t invocation_id = 0;               // Cluster-wide invocation id.
};

// Scatter-encodes the invoke body: one owned prefix chunk (name, priority,
// deadline, id) followed by the marshalled argument sets as
// MarshalSetsScatter chunks — large payloads ride as slices of their
// existing backing buffers all the way into writev, zero copies.
std::vector<dbase::BufferSlice> EncodeInvoke(const WireInvoke& invoke);

// Parses an invoke body. Argument payloads alias `body` (zero-copy): the
// receive buffer stays pinned until the last item referencing it dies.
dbase::Result<WireInvoke> DecodeInvoke(const dbase::BufferSlice& body);

// ----------------------------------------------------------------- outcome

// A remote invocation's terminal result. `failure_kind` carries the
// serving node's dpolicy::FailureKind for the caller to inspect; the router
// does not read it. What tells a remote jail kill (deterministic, never
// retried) from an environmental failure is where the failure arrives: a
// failure in a decoded outcome surfaces unchanged, while a transport
// failure (the peer lost) or the shed flag re-routes. A stopped invocation
// carries its forked instance's kill kind; a thread-flavoured instance
// that has not returned yet leaves it kNone.
struct WireOutcome {
  dbase::StatusCode code = dbase::StatusCode::kOk;
  std::string message;            // Status message when code != kOk.
  uint8_t failure_kind = 0;       // dpolicy::FailureKind underlying value.
  uint32_t retries_attempted = 0; // Retries the serving node absorbed.
  dfunc::DataSetList sets;        // Results when code == kOk.
  // Admission shed marker. Not part of the body: it travels as kFlagShed
  // in the frame header — the framing layer sets/reads it so routers can
  // distinguish "peer refused at its caps, re-routable" from other
  // kUnavailable without parsing the body.
  bool shed = false;
};

std::vector<dbase::BufferSlice> EncodeOutcome(const WireOutcome& outcome);
dbase::Result<WireOutcome> DecodeOutcome(const dbase::BufferSlice& body);

// ------------------------------------------------------------------ gossip

// One node's gossiped status: its load and its admission headroom. The
// router places by the load and reports the cap in /statz; the body's size
// does not depend on what the node has served.
struct WireNodeStatus {
  std::string node_name;
  // Invocations currently in flight on the node (all classes).
  uint64_t inflight = 0;
  // Node-local admission cap (0 = uncapped): the interactive plus the
  // batch cap.
  uint64_t admission_cap = 0;
  // Engine tasks queued on the node, compute plus comm.
  uint64_t backlog = 0;
};

std::string EncodeNodeStatus(const WireNodeStatus& status);
dbase::Result<WireNodeStatus> DecodeNodeStatus(const dbase::BufferSlice& body);

// ------------------------------------------------------------------- join

struct WireJoin {
  std::string node_name;
};

std::string EncodeJoin(const WireJoin& join);
dbase::Result<WireJoin> DecodeJoin(const dbase::BufferSlice& body);

}  // namespace dnet

#endif  // SRC_NET_WIRE_H_
