// In-process stand-in for the remote cloud services Dandelion applications
// talk to (storage buckets, auth, AI inference, databases — §3). Each
// registered service handles sanitized requests and reports a modelled
// network+service latency so both the real runtime (which sleeps for it)
// and the simulator (which advances virtual time by it) exercise the same
// code path.
#ifndef SRC_HTTP_SERVICE_MESH_H_
#define SRC_HTTP_SERVICE_MESH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/http/http_message.h"
#include "src/http/sanitizer.h"

namespace dhttp {

// Latency model for one service endpoint: base RTT + per-byte transfer cost
// + lognormal jitter. All values are microseconds (per-byte in nanos).
struct LatencyModel {
  dbase::Micros base_us = 200;       // Connection + request overhead.
  double per_kb_us = 1.0;            // Bandwidth term, per KiB moved.
  double jitter_sigma = 0.1;         // Lognormal sigma on the total.

  dbase::Micros Sample(size_t bytes_moved, dbase::Rng& rng) const;
};

// A simulated remote service. Handle() must be thread-safe: communication
// engines call it concurrently from their cooperative runtimes.
class Service {
 public:
  virtual ~Service() = default;
  virtual HttpResponse Handle(const HttpRequest& request, const Uri& uri) = 0;
};

// Result of carrying a request to a service: the response plus the latency
// the network+service would have added.
struct MeshCallResult {
  HttpResponse response;
  dbase::Micros latency_us = 0;
};

class ServiceMesh {
 public:
  // Carries a serialized request to a named peer node and returns the
  // serialized response plus the latency the serving node reported — the
  // seam the cluster plugs its dnet NodeClient into (one socket path for
  // invokes and mesh calls alike). Must be thread-safe.
  using RemoteTransport = std::function<dbase::Result<MeshCallResult>(
      const std::string& peer, const SanitizedRequest& request)>;

  ServiceMesh() : rng_(0xD00DFEEDULL) {}

  // Registers a service under a host name ("storage.internal"). Replaces any
  // existing registration.
  void Register(const std::string& host, std::shared_ptr<Service> service,
                LatencyModel latency = LatencyModel{});

  // Registers a host that lives on another node: calls to it ride the
  // remote transport to `peer`, where that node's local mesh serves them.
  // A local Register for the same host wins (data gravity: never pay the
  // wire for a service this node has).
  void RegisterRemote(const std::string& host, const std::string& peer);

  // Installs the transport remote hosts are carried over. Without one,
  // remote hosts fail like unknown hosts (502).
  void SetRemoteTransport(RemoteTransport transport);

  bool HasHost(const std::string& host) const;

  // Carries out a sanitized request: routes on the URI host, invokes the
  // service (locally, or on the owning peer via the remote transport), and
  // samples the latency model. Unknown hosts yield 502. `carried_to` names
  // this node when another node carried the request here: then only local
  // endpoints serve it, and any other host yields 502 instead of a further
  // hop, so a call can never bounce between nodes.
  MeshCallResult Call(const SanitizedRequest& request, std::string_view carried_to = {});

  uint64_t total_calls() const { return total_calls_.load(std::memory_order_relaxed); }
  uint64_t remote_calls() const { return remote_calls_.load(std::memory_order_relaxed); }

 private:
  struct Endpoint {
    std::shared_ptr<Service> service;
    LatencyModel latency;
    // Non-empty = remote host: carried to this peer instead of served here.
    std::string peer;
  };

  MeshCallResult CallRemote(const std::string& peer, const SanitizedRequest& request);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Endpoint> endpoints_;
  RemoteTransport remote_transport_;  // Guarded by mu_.
  dbase::Rng rng_;                    // Guarded by mu_.
  std::atomic<uint64_t> total_calls_{0};
  std::atomic<uint64_t> remote_calls_{0};
};

}  // namespace dhttp

#endif  // SRC_HTTP_SERVICE_MESH_H_
