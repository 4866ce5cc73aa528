// The HTTP communication function (§6.3): the platform-provided, trusted
// function users invoke from compositions. Sanitizes an untrusted request
// item, carries it to the service mesh, and hands back the serialized
// response. Failures are *forwarded* as HTTP error responses, not raised —
// downstream functions see "404 Not Found" items and can handle them (§4.4).
#ifndef SRC_RUNTIME_COMM_FUNCTION_H_
#define SRC_RUNTIME_COMM_FUNCTION_H_

#include <functional>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/http/service_mesh.h"

namespace dandelion {

// Name under which the HTTP communication function is invocable from
// composition DSL programs.
inline constexpr const char* kHttpFunctionName = "HTTP";

// Canonical input/output set names of the HTTP function.
inline constexpr const char* kHttpRequestSet = "Request";
inline constexpr const char* kHttpResponseSet = "Response";

struct CommCallResult {
  dhttp::HttpResponse response;
  // Modelled network+service latency the caller should account (the real
  // runtime sleeps it; the simulator advances virtual time by it).
  dbase::Micros latency_us = 0;
};

// Runs the full trusted path: sanitize → route → respond. Never fails; a
// rejected request becomes a "400 Bad Request" response whose body explains
// the sanitizer's reason.
CommCallResult ExecuteHttpFunction(dhttp::ServiceMesh& mesh, std::string_view raw_request);

// A platform-provided communication function (§3: "They are implemented by
// the Dandelion platform ... We plan to add more communication functions to
// support additional protocols."). Handlers are trusted code; the raw
// request bytes are untrusted function output and must be sanitized.
struct CommFunctionSpec {
  std::string name;              // Callee name in composition DSL.
  std::string request_set = kHttpRequestSet;
  std::string response_set = kHttpResponseSet;
  // Must never throw; failures are forwarded as error responses (§4.4).
  std::function<CommCallResult(dhttp::ServiceMesh&, std::string_view raw)> handler;
};

// "HTTP", the communication function every platform's registry starts with.
CommFunctionSpec HttpFunction();

}  // namespace dandelion

#endif  // SRC_RUNTIME_COMM_FUNCTION_H_
