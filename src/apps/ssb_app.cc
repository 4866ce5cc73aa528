#include "src/apps/ssb_app.h"

#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/sql/ssb_queries.h"

namespace dapps {

const char kSsbQueryDsl[] = R"(
composition SsbQuery(QuerySpec, PartitionKeys) => QueryResult {
  MakeSsbFetches(Keys = all PartitionKeys) => (PartRequests = HTTPRequests);
  HTTP(Request = each PartRequests) => (PartData = Response);
  MakeDimFetch(Spec = all QuerySpec) => (DimRequest = HTTPRequest);
  HTTP(Request = each DimRequest) => (DimData = Response);
  RunPartition(Partition = each PartData, Dims = all DimData, Spec = all QuerySpec)
      => (Partial = Partial);
  MergePartials(Partials = all Partial, Spec = all QuerySpec) => (QueryResult = Result);
}
)";

namespace {
constexpr const char* kStoreBase = "http://s3.internal";

void AppendBlob(std::string* out, std::string_view blob) {
  const uint32_t size = static_cast<uint32_t>(blob.size());
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<char>((size >> (8 * b)) & 0xff));
  }
  out->append(blob);
}

dbase::Result<std::string_view> ReadBlob(std::string_view data, size_t* pos) {
  if (data.size() - *pos < 4) {
    return dbase::InvalidArgument("truncated dims bundle");
  }
  uint32_t size = 0;
  for (int b = 3; b >= 0; --b) {
    size = (size << 8) | static_cast<uint8_t>(data[*pos + static_cast<size_t>(b)]);
  }
  *pos += 4;
  if (data.size() - *pos < size) {
    return dbase::InvalidArgument("truncated dims bundle payload");
  }
  std::string_view blob = data.substr(*pos, size);
  *pos += size;
  return blob;
}

dbase::Result<int> ParseQueryId(std::string_view spec) {
  int64_t id = 0;
  if (!dbase::ParseInt64(dbase::TrimWhitespace(spec), &id)) {
    return dbase::InvalidArgument("query spec must be an SSB query id (11/21/31/41)");
  }
  return static_cast<int>(id);
}
}  // namespace

std::string SerializeDims(const dsql::SsbData& data) {
  std::string out;
  AppendBlob(&out, dsql::SerializeTable(data.date));
  AppendBlob(&out, dsql::SerializeTable(data.customer));
  AppendBlob(&out, dsql::SerializeTable(data.supplier));
  AppendBlob(&out, dsql::SerializeTable(data.part));
  return out;
}

dbase::Result<dsql::SsbData> DeserializeDims(std::string_view bytes) {
  dsql::SsbData data;
  size_t pos = 0;
  ASSIGN_OR_RETURN(std::string_view date_bytes, ReadBlob(bytes, &pos));
  ASSIGN_OR_RETURN(data.date, dsql::DeserializeTable(date_bytes));
  ASSIGN_OR_RETURN(std::string_view customer_bytes, ReadBlob(bytes, &pos));
  ASSIGN_OR_RETURN(data.customer, dsql::DeserializeTable(customer_bytes));
  ASSIGN_OR_RETURN(std::string_view supplier_bytes, ReadBlob(bytes, &pos));
  ASSIGN_OR_RETURN(data.supplier, dsql::DeserializeTable(supplier_bytes));
  ASSIGN_OR_RETURN(std::string_view part_bytes, ReadBlob(bytes, &pos));
  ASSIGN_OR_RETURN(data.part, dsql::DeserializeTable(part_bytes));
  return data;
}

dbase::Status MakeSsbFetchesFunction(dfunc::FunctionCtx& ctx) {
  const dfunc::DataSet* keys = ctx.input_set("Keys");
  if (keys == nullptr) {
    return dbase::NotFound("MakeSsbFetches expects input set 'Keys'");
  }
  for (const auto& item : keys->items) {
    dhttp::HttpRequest request;
    request.method = dhttp::Method::kGet;
    request.target = std::string(kStoreBase) + "/ssb/" + item.data.ToString();
    ctx.EmitOutput("HTTPRequests", request.Serialize());
  }
  return dbase::OkStatus();
}

dbase::Status MakeDimFetchFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string spec, ctx.SingleInput("Spec"));
  RETURN_IF_ERROR(ParseQueryId(spec).status());  // Validate early.
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kGet;
  request.target = std::string(kStoreBase) + "/ssb/dims";
  ctx.EmitOutput("HTTPRequest", request.Serialize());
  return dbase::OkStatus();
}

dbase::Status RunPartitionFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string part_raw, ctx.SingleInput("Partition"));
  ASSIGN_OR_RETURN(std::string dims_raw, ctx.SingleInput("Dims"));
  ASSIGN_OR_RETURN(std::string spec, ctx.SingleInput("Spec"));
  ASSIGN_OR_RETURN(int query_id, ParseQueryId(spec));

  ASSIGN_OR_RETURN(dhttp::HttpResponse part_resp, dhttp::ParseResponse(part_raw));
  ASSIGN_OR_RETURN(dhttp::HttpResponse dims_resp, dhttp::ParseResponse(dims_raw));
  if (!part_resp.IsSuccess() || !dims_resp.IsSuccess()) {
    return dbase::Unavailable("S3 fetch failed during query execution");
  }
  ASSIGN_OR_RETURN(dsql::Table partition, dsql::DeserializeTable(part_resp.body));
  ASSIGN_OR_RETURN(dsql::SsbData dims, DeserializeDims(dims_resp.body));
  ASSIGN_OR_RETURN(dsql::Table partial,
                   dsql::RunQueryOnPartition(query_id, partition, dims));
  ctx.EmitOutput("Partial", dsql::SerializeTable(partial));
  return dbase::OkStatus();
}

dbase::Status MergePartialsFunction(dfunc::FunctionCtx& ctx) {
  const dfunc::DataSet* partials = ctx.input_set("Partials");
  if (partials == nullptr || partials->items.empty()) {
    return dbase::FailedPrecondition("no partials to merge");
  }
  ASSIGN_OR_RETURN(std::string spec, ctx.SingleInput("Spec"));
  ASSIGN_OR_RETURN(int query_id, ParseQueryId(spec));
  std::vector<dsql::Table> tables;
  tables.reserve(partials->items.size());
  for (const auto& item : partials->items) {
    ASSIGN_OR_RETURN(dsql::Table table, dsql::DeserializeTable(item.data));
    tables.push_back(std::move(table));
  }
  ASSIGN_OR_RETURN(dsql::Table merged, dsql::MergeQueryPartials(query_id, tables));
  ctx.EmitOutput("Result", merged.ToCsv());
  return dbase::OkStatus();
}

dbase::Result<SsbAppHandle> InstallSsbApp(dandelion::Platform& platform,
                                          const SsbAppConfig& config) {
  RETURN_IF_ERROR(platform.RegisterFunction(
      {.name = "MakeSsbFetches", .body = MakeSsbFetchesFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "MakeDimFetch", .body = MakeDimFetchFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "RunPartition",
                                             .body = RunPartitionFunction,
                                             .context_bytes = 256ull << 20,
                                             .timeout_us = 60 * dbase::kMicrosPerSecond}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "MergePartials",
                                             .body = MergePartialsFunction,
                                             .context_bytes = 64ull << 20,
                                             .timeout_us = 60 * dbase::kMicrosPerSecond}));
  RETURN_IF_ERROR(platform.RegisterCompositionDsl(kSsbQueryDsl));

  SsbAppHandle handle;
  handle.partitions = config.partitions;
  handle.store = std::make_shared<dhttp::ObjectStoreService>();

  const dsql::SsbData data = dsql::GenerateSsb(config.data);
  const std::string dims = SerializeDims(data);
  handle.store->PutObject("/ssb/dims", dims);
  handle.stored_bytes += dims.size();
  for (const auto& partition : dsql::PartitionLineorder(data.lineorder, config.partitions)) {
    const std::string bytes = dsql::SerializeTable(partition);
    handle.stored_bytes += bytes.size();
    handle.store->PutObject("/ssb/" + partition.name(), bytes);
  }

  dhttp::LatencyModel s3_latency;
  s3_latency.base_us = config.s3_base_latency_us;
  s3_latency.per_kb_us = config.s3_us_per_kb;
  s3_latency.jitter_sigma = 0.08;
  platform.mesh().Register(config.store_host, handle.store, s3_latency);
  return handle;
}

dbase::Result<std::string> RunSsbQuery(dandelion::Platform& platform,
                                       const SsbAppHandle& handle, int query_id) {
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{"QuerySpec", {dfunc::DataItem{"", std::to_string(query_id)}}});
  dfunc::DataSet keys;
  keys.name = "PartitionKeys";
  for (int p = 0; p < handle.partitions; ++p) {
    keys.items.push_back(dfunc::DataItem{"", dbase::StrFormat("lineorder_p%d", p)});
  }
  args.push_back(std::move(keys));
  ASSIGN_OR_RETURN(dfunc::DataSetList results, platform.Invoke({"SsbQuery", std::move(args)}));
  const dfunc::DataSet* result = dfunc::FindSet(results, "QueryResult");
  if (result == nullptr || result->items.empty()) {
    return dbase::Internal("SsbQuery produced no QueryResult");
  }
  return result->items.front().data.ToString();
}

}  // namespace dapps
