#include "src/http/service_mesh.h"

#include <algorithm>

namespace dhttp {

dbase::Micros LatencyModel::Sample(size_t bytes_moved, dbase::Rng& rng) const {
  const double transfer = per_kb_us * (static_cast<double>(bytes_moved) / 1024.0);
  const double nominal = static_cast<double>(base_us) + transfer;
  if (jitter_sigma <= 0.0) {
    return static_cast<dbase::Micros>(nominal);
  }
  const double jitter = rng.LogNormal(0.0, jitter_sigma);
  return static_cast<dbase::Micros>(std::max(1.0, nominal * jitter));
}

void ServiceMesh::Register(const std::string& host, std::shared_ptr<Service> service,
                           LatencyModel latency) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[host] = Endpoint{std::move(service), latency, /*peer=*/""};
}

void ServiceMesh::RegisterRemote(const std::string& host, const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  // A local service under the same host wins: remote registration must not
  // shadow data this node already has.
  auto it = endpoints_.find(host);
  if (it != endpoints_.end() && it->second.service != nullptr) {
    return;
  }
  Endpoint endpoint;
  endpoint.peer = peer;
  endpoints_[host] = std::move(endpoint);
}

void ServiceMesh::SetRemoteTransport(RemoteTransport transport) {
  std::lock_guard<std::mutex> lock(mu_);
  remote_transport_ = std::move(transport);
}

bool ServiceMesh::HasHost(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.count(host) > 0;
}

MeshCallResult ServiceMesh::CallRemote(const std::string& peer,
                                       const SanitizedRequest& request) {
  RemoteTransport transport;
  {
    std::lock_guard<std::mutex> lock(mu_);
    transport = remote_transport_;
  }
  MeshCallResult out;
  if (!transport) {
    out.response = HttpResponse::Make(502, "Bad Gateway",
                                      "remote host on '" + peer + "' but no transport");
    out.latency_us = 50;
    return out;
  }
  remote_calls_.fetch_add(1, std::memory_order_relaxed);
  dbase::Result<MeshCallResult> carried = transport(peer, request);
  if (!carried.ok()) {
    out.response = HttpResponse::Make(
        502, "Bad Gateway", "mesh transport to '" + peer + "': " + carried.status().ToString());
    out.latency_us = 50;
    return out;
  }
  return std::move(carried).value();
}

MeshCallResult ServiceMesh::Call(const SanitizedRequest& request, std::string_view carried_to) {
  total_calls_.fetch_add(1, std::memory_order_relaxed);

  Endpoint endpoint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(request.uri.host);
    if (it != endpoints_.end()) {
      endpoint = it->second;
    }
  }
  if (endpoint.service == nullptr && (endpoint.peer.empty() || !carried_to.empty())) {
    MeshCallResult out;
    out.response = HttpResponse::Make(
        502, "Bad Gateway",
        carried_to.empty() ? "no route to host: " + request.uri.host
                           : "host " + request.uri.host + " not served on " +
                                 std::string(carried_to));
    out.latency_us = 50;  // Fast local failure.
    return out;
  }

  // Remote host: the owning peer's mesh serves it, one hop over the node
  // wire. The latency model is the serving node's — the wire itself is real.
  if (endpoint.service == nullptr) {
    return CallRemote(endpoint.peer, request);
  }

  // Invoke the service outside the lock; services may be slow or reentrant.
  MeshCallResult out;
  out.response = endpoint.service->Handle(request.request, request.uri);
  {
    // One latency sample for the whole round trip: base_us covers the RTT +
    // service overhead, the bandwidth term covers bytes moved both ways.
    std::lock_guard<std::mutex> lock(mu_);
    out.latency_us = endpoint.latency.Sample(
        request.request.body.size() + out.response.body.size(), rng_);
  }
  return out;
}

}  // namespace dhttp
