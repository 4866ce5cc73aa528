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
  endpoints_[host] = Endpoint{std::move(service), latency};
}

bool ServiceMesh::HasHost(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.count(host) > 0;
}

ServiceReply ServiceMesh::Call(const SanitizedRequest& request) {
  total_calls_.fetch_add(1, std::memory_order_relaxed);

  Endpoint endpoint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(request.uri.host);
    if (it != endpoints_.end()) {
      endpoint = it->second;
    }
  }
  if (endpoint.service == nullptr) {
    ServiceReply out;
    out.response =
        HttpResponse::Make(502, "Bad Gateway", "no route to host: " + request.uri.host);
    out.latency_us = 50;  // Fast local failure.
    return out;
  }

  // Invoke the service outside the lock; services may be slow or reentrant.
  ServiceReply out;
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
