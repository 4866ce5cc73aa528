#include "src/runtime/comm_function.h"

#include "src/http/sanitizer.h"

namespace dandelion {

CommCallResult ExecuteHttpFunction(dhttp::ServiceMesh& mesh, std::string_view raw_request) {
  CommCallResult result;
  auto sanitized = dhttp::SanitizeRequest(raw_request);
  if (!sanitized.ok()) {
    result.response =
        dhttp::HttpResponse::BadRequest("request rejected: " + sanitized.status().ToString());
    result.latency_us = 5;  // Rejected before touching the network.
    return result;
  }
  dhttp::ServiceReply call = mesh.Call(sanitized.value());
  result.response = std::move(call.response);
  result.latency_us = call.latency_us;
  return result;
}

CommFunctionSpec HttpFunction() {
  CommFunctionSpec http;
  http.name = kHttpFunctionName;
  http.handler = [](dhttp::ServiceMesh& mesh, std::string_view raw) {
    return ExecuteHttpFunction(mesh, raw);
  };
  return http;
}

}  // namespace dandelion
