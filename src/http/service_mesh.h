// In-process stand-in for the remote cloud services Dandelion applications
// talk to (storage buckets, auth, AI inference, databases — §3). Each
// registered service handles sanitized requests and reports a modelled
// network+service latency so both the real runtime (which sleeps for it)
// and the simulator (which advances virtual time by it) exercise the same
// code path. Every mesh is local to its process: a call is served by the
// endpoints registered on this node's mesh or fails with 502, and never
// hops to another node.
#ifndef SRC_HTTP_SERVICE_MESH_H_
#define SRC_HTTP_SERVICE_MESH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
struct ServiceReply {
  HttpResponse response;
  dbase::Micros latency_us = 0;
};

class ServiceMesh {
 public:
  ServiceMesh() : rng_(0xD00DFEEDULL) {}

  // Registers a service under a host name ("storage.internal"). Replaces any
  // existing registration.
  void Register(const std::string& host, std::shared_ptr<Service> service,
                LatencyModel latency = LatencyModel{});

  bool HasHost(const std::string& host) const;

  // Carries out a sanitized request: routes on the URI host, invokes the
  // service registered there, and samples its latency model. Unknown hosts
  // yield 502.
  ServiceReply Call(const SanitizedRequest& request);

  uint64_t total_calls() const { return total_calls_.load(std::memory_order_relaxed); }

 private:
  struct Endpoint {
    std::shared_ptr<Service> service;
    LatencyModel latency;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Endpoint> endpoints_;
  dbase::Rng rng_;  // Guarded by mu_.
  std::atomic<uint64_t> total_calls_{0};
};

}  // namespace dhttp

#endif  // SRC_HTTP_SERVICE_MESH_H_
