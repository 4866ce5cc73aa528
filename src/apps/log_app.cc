#include "src/apps/log_app.h"

#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/http/services.h"

namespace dapps {

const char kRenderLogsDsl[] = R"(
composition RenderLogs(AccessToken) => HTMLOutput {
  Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
  HTTP(Request = each AuthRequest) => (AuthResponse = Response);
  FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
  HTTP(Request = each LogRequests) => (LogResponses = Response);
  Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
}
)";

namespace {
constexpr const char* kAuthUrl = "http://auth.internal/authorize";
}

dbase::Status LogAccessFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string token, ctx.SingleInput("AccessToken"));
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = kAuthUrl;
  request.body = token;
  ctx.EmitOutput("HTTPRequest", request.Serialize());
  return dbase::OkStatus();
}

dbase::Status LogFanOutFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw_response, ctx.SingleInput("HTTPResponse"));
  ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(raw_response));
  if (!response.IsSuccess()) {
    // Forward the failure: emit no shard requests; Render then reports the
    // empty result (conditional-execution semantics, §4.4).
    return dbase::OkStatus();
  }
  for (auto line : dbase::SplitString(response.body, '\n')) {
    const std::string url(dbase::TrimWhitespace(line));
    if (url.empty()) {
      continue;
    }
    dhttp::HttpRequest request;
    request.method = dhttp::Method::kGet;
    request.target = url;
    ctx.EmitOutput("HTTPRequests", request.Serialize());
  }
  return dbase::OkStatus();
}

dbase::Status LogRenderFunction(dfunc::FunctionCtx& ctx) {
  const dfunc::DataSet* responses = ctx.input_set("HTTPResponses");
  if (responses == nullptr) {
    return dbase::NotFound("Render expects input set 'HTTPResponses'");
  }
  std::string html = "<html><body>\n";
  int shard_index = 0;
  for (const auto& item : responses->items) {
    auto response = dhttp::ParseResponse(item.data);
    html += dbase::StrFormat("<section id=\"shard-%d\">\n", shard_index++);
    if (response.ok() && response->IsSuccess()) {
      for (auto line : dbase::SplitString(response->body, '\n')) {
        if (!line.empty()) {
          html += "<pre>" + std::string(line) + "</pre>\n";
        }
      }
    } else {
      html += dbase::StrFormat("<p class=\"error\">shard fetch failed: %d</p>\n",
                               response.ok() ? response->status_code : 400);
    }
    html += "</section>\n";
  }
  html += "</body></html>\n";
  ctx.EmitOutput("HTMLOutput", std::move(html));
  return dbase::OkStatus();
}

dbase::Status InstallLogApp(dandelion::Platform& platform, const LogAppConfig& config) {
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "Access", .body = LogAccessFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "FanOut", .body = LogFanOutFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "Render", .body = LogRenderFunction}));
  RETURN_IF_ERROR(platform.RegisterCompositionDsl(kRenderLogsDsl));

  // Shard services + auth service on the mesh.
  std::vector<std::string> shard_urls;
  for (int s = 0; s < config.num_shards; ++s) {
    const std::string host = dbase::StrFormat("logs-%d.internal", s);
    shard_urls.push_back("http://" + host + "/logs");
    auto lines = dhttp::LogShardService::GenerateLines(dbase::StrFormat("shard%d", s),
                                                       config.lines_per_shard,
                                                       0x10C5EED + static_cast<uint64_t>(s));
    dhttp::LatencyModel latency;
    latency.base_us = config.shard_latency_us;
    platform.mesh().Register(host, std::make_shared<dhttp::LogShardService>(std::move(lines)),
                             latency);
  }
  dhttp::LatencyModel auth_latency;
  auth_latency.base_us = config.auth_latency_us;
  platform.mesh().Register(
      config.auth_host, std::make_shared<dhttp::AuthService>(config.auth_token, shard_urls),
      auth_latency);
  return dbase::OkStatus();
}

dbase::Result<std::string> RunLogApp(dandelion::Platform& platform, const LogAppConfig& config) {
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{"AccessToken", {dfunc::DataItem{"", config.auth_token}}});
  ASSIGN_OR_RETURN(dfunc::DataSetList results, platform.Invoke({"RenderLogs", std::move(args)}));
  const dfunc::DataSet* html = dfunc::FindSet(results, "HTMLOutput");
  if (html == nullptr || html->items.empty()) {
    return dbase::Internal("RenderLogs produced no HTMLOutput");
  }
  return html->items.front().data.ToString();
}

}  // namespace dapps
