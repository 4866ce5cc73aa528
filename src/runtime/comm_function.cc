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

CommFunctionRegistry::CommFunctionRegistry() {
  CommFunctionSpec http;
  http.name = kHttpFunctionName;
  http.handler = [](dhttp::ServiceMesh& mesh, std::string_view raw) {
    return ExecuteHttpFunction(mesh, raw);
  };
  functions_.emplace(http.name, std::move(http));
}

dbase::Status CommFunctionRegistry::Register(CommFunctionSpec spec) {
  if (spec.name.empty() || !spec.handler) {
    return dbase::InvalidArgument("communication function needs a name and a handler");
  }
  if (spec.request_set.empty() || spec.response_set.empty()) {
    return dbase::InvalidArgument("communication function needs request/response set names");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = functions_.emplace(spec.name, std::move(spec));
  if (!inserted) {
    return dbase::AlreadyExists("communication function already registered: " + it->first);
  }
  return dbase::OkStatus();
}

dbase::Result<CommFunctionSpec> CommFunctionRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return dbase::NotFound("no communication function named " + name);
  }
  return it->second;
}

std::optional<CommFunctionSpec> CommFunctionRegistry::TryLookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool CommFunctionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return functions_.count(name) > 0;
}

std::vector<std::string> CommFunctionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, spec] : functions_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace dandelion
