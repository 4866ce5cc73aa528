#include "src/apps/image_app.h"

#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/http/services.h"
#include "src/img/png.h"
#include "src/img/qoi.h"

namespace dapps {

const char kImagePipelineDsl[] = R"(
composition CompressImage(ImageKey) => StoreStatus {
  MakeFetchRequest(ImageKey = all ImageKey) => (FetchRequest = HTTPRequest);
  HTTP(Request = each FetchRequest) => (FetchResponse = Response);
  Compress(QoiData = all FetchResponse) => (StoreRequest = HTTPRequest);
  HTTP(Request = each StoreRequest) => (StoreResponse = Response);
  CheckStored(StoreResponse = all StoreResponse) => (StoreStatus = Status);
}
)";

namespace {
constexpr const char* kStoreBase = "http://storage.internal";
}

dbase::Status MakeFetchRequestFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string key, ctx.SingleInput("ImageKey"));
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kGet;
  request.target = std::string(kStoreBase) + "/images/" + key + ".qoi";
  ctx.EmitOutput("HTTPRequest", request.Serialize());
  return dbase::OkStatus();
}

dbase::Status CompressImageFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw, ctx.SingleInput("QoiData"));
  ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(raw));
  if (!response.IsSuccess()) {
    return dbase::NotFound("image fetch failed with status " +
                           std::to_string(response.status_code));
  }
  ASSIGN_OR_RETURN(std::string png, dimg::TranscodeQoiToPng(response.body));
  dhttp::HttpRequest put;
  put.method = dhttp::Method::kPut;
  put.target = std::string(kStoreBase) + "/compressed/output.png";
  put.body = std::move(png);
  ctx.EmitOutput("HTTPRequest", put.Serialize());
  return dbase::OkStatus();
}

dbase::Status CheckStoredFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw, ctx.SingleInput("StoreResponse"));
  ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(raw));
  ctx.EmitOutput("Status", response.IsSuccess()
                               ? std::string("stored")
                               : "store failed: " + std::to_string(response.status_code));
  return dbase::OkStatus();
}

dbase::Status InstallImageApp(dandelion::Platform& platform, const ImageAppConfig& config) {
  RETURN_IF_ERROR(
      platform.RegisterFunction({.name = "MakeFetchRequest", .body = MakeFetchRequestFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction(
      {.name = "Compress", .body = CompressImageFunction, .context_bytes = 32ull << 20}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "CheckStored", .body = CheckStoredFunction}));
  RETURN_IF_ERROR(platform.RegisterCompositionDsl(kImagePipelineDsl));

  auto store = std::make_shared<dhttp::ObjectStoreService>();
  for (int i = 0; i < config.num_images; ++i) {
    const dimg::Image image = dimg::MakeTestImage(config.image_width, config.image_height, 4,
                                                  0x1247E5 + static_cast<uint64_t>(i));
    store->PutObject(dbase::StrFormat("/images/img%d.qoi", i), dimg::QoiEncode(image));
  }
  dhttp::LatencyModel latency;
  latency.base_us = config.store_latency_us;
  latency.per_kb_us = 2.0;
  platform.mesh().Register(config.store_host, store, latency);
  return dbase::OkStatus();
}

dbase::Result<std::string> RunImageApp(dandelion::Platform& platform, int index) {
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{
      "ImageKey", {dfunc::DataItem{"", dbase::StrFormat("img%d", index)}}});
  ASSIGN_OR_RETURN(dfunc::DataSetList results, platform.Invoke({"CompressImage", std::move(args)}));
  const dfunc::DataSet* status = dfunc::FindSet(results, "StoreStatus");
  if (status == nullptr || status->items.empty()) {
    return dbase::Internal("CompressImage produced no StoreStatus");
  }
  return status->items.front().data.ToString();
}

}  // namespace dapps
