#include "src/apps/text2sql_app.h"

#include "src/base/clock.h"
#include "src/base/string_util.h"
#include "src/http/http_parser.h"
#include "src/http/services.h"

namespace dapps {

const char kText2SqlDsl[] = R"(
composition Text2Sql(Question) => Answer {
  ParsePrompt(Question = all Question) => (LlmRequest = HTTPRequest);
  HTTP(Request = each LlmRequest) => (LlmResponse = Response);
  ExtractSql(Completion = all LlmResponse) => (DbRequest = HTTPRequest);
  HTTP(Request = each DbRequest) => (DbResponse = Response);
  FormatResult(Rows = all DbResponse, Question = all Question) => (Answer = Answer);
}
)";

namespace {
constexpr const char* kLlmUrl = "http://llm.internal/v1/completions";
constexpr const char* kDbUrl = "http://db.internal/query";
constexpr const char* kSchemaHint =
    "Schema: cities(name, country, population). Answer with one SQL statement "
    "inside ```sql ...``` fences.";
}  // namespace

dbase::Status ParsePromptFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string question, ctx.SingleInput("Question"));
  // Normalize whitespace; reject empty questions.
  std::string normalized(dbase::TrimWhitespace(question));
  if (normalized.empty()) {
    return dbase::InvalidArgument("empty question");
  }
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = kLlmUrl;
  request.body = std::string(kSchemaHint) + "\nQuestion: " + normalized;
  ctx.EmitOutput("HTTPRequest", request.Serialize());
  return dbase::OkStatus();
}

dbase::Status ExtractSqlFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw, ctx.SingleInput("Completion"));
  ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(raw));
  if (!response.IsSuccess()) {
    return dbase::Unavailable("LLM call failed with status " +
                              std::to_string(response.status_code));
  }
  // Pull the statement out of ```sql fences; fall back to the raw body.
  std::string sql = response.body;
  const size_t fence = sql.find("```sql");
  if (fence != std::string::npos) {
    const size_t start = fence + 6;
    const size_t end = sql.find("```", start);
    sql = sql.substr(start, end == std::string::npos ? std::string::npos : end - start);
  }
  sql = std::string(dbase::TrimWhitespace(sql));
  if (sql.empty()) {
    return dbase::InvalidArgument("LLM completion contained no SQL");
  }
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = kDbUrl;
  request.body = sql;
  ctx.EmitOutput("HTTPRequest", request.Serialize());
  return dbase::OkStatus();
}

dbase::Status FormatResultFunction(dfunc::FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw, ctx.SingleInput("Rows"));
  ASSIGN_OR_RETURN(std::string question, ctx.SingleInput("Question"));
  ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(raw));
  std::string answer = "Q: " + std::string(dbase::TrimWhitespace(question)) + "\n";
  if (!response.IsSuccess()) {
    answer += "The database query failed (" + std::to_string(response.status_code) + ").\n";
  } else if (dbase::TrimWhitespace(response.body).empty()) {
    answer += "No rows matched.\n";
  } else {
    answer += "Rows:\n";
    for (auto line : dbase::SplitString(response.body, '\n')) {
      if (!line.empty()) {
        answer += "  - " + std::string(line) + "\n";
      }
    }
  }
  ctx.EmitOutput("Answer", std::move(answer));
  return dbase::OkStatus();
}

dbase::Status InstallText2SqlApp(dandelion::Platform& platform, const Text2SqlConfig& config) {
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "ParsePrompt", .body = ParsePromptFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "ExtractSql", .body = ExtractSqlFunction}));
  RETURN_IF_ERROR(
      platform.RegisterFunction({.name = "FormatResult", .body = FormatResultFunction}));
  RETURN_IF_ERROR(platform.RegisterCompositionDsl(kText2SqlDsl));

  // LLM endpoint with a canned completion for the demo question family.
  auto llm = std::make_shared<dhttp::LlmService>("```sql\nSELECT 1;\n```");
  llm->AddCannedCompletion(
      "most populous",
      "Sure! ```sql\nSELECT name FROM cities WHERE country = 'Japan' LIMIT 3\n``` "
      "This lists Japanese cities.");
  llm->AddCannedCompletion(
      "population of",
      "```sql\nSELECT name, population FROM cities WHERE name = 'Tokyo'\n```");
  dhttp::LatencyModel llm_latency;
  llm_latency.base_us = config.llm_latency_us;
  llm_latency.jitter_sigma = 0.05;
  platform.mesh().Register(config.llm_host, llm, llm_latency);

  // SQLite stand-in with a small cities table.
  auto db = std::make_shared<dhttp::KeyValueDbService>();
  db->CreateTable("cities", {"name", "country", "population"});
  db->InsertRow("cities", {"Tokyo", "Japan", "37400068"});
  db->InsertRow("cities", {"Osaka", "Japan", "19281000"});
  db->InsertRow("cities", {"Nagoya", "Japan", "9507000"});
  db->InsertRow("cities", {"Zurich", "Switzerland", "1395000"});
  db->InsertRow("cities", {"Seoul", "South Korea", "9963000"});
  dhttp::LatencyModel db_latency;
  db_latency.base_us = config.db_latency_us;
  db_latency.jitter_sigma = 0.05;
  platform.mesh().Register(config.db_host, db, db_latency);
  return dbase::OkStatus();
}

dbase::Result<std::string> RunText2Sql(dandelion::Platform& platform,
                                       const std::string& question) {
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{"Question", {dfunc::DataItem{"", question}}});
  ASSIGN_OR_RETURN(dfunc::DataSetList results, platform.Invoke({"Text2Sql", std::move(args)}));
  const dfunc::DataSet* answer = dfunc::FindSet(results, "Answer");
  if (answer == nullptr || answer->items.empty()) {
    return dbase::Internal("Text2Sql produced no Answer");
  }
  return answer->items.front().data.ToString();
}

}  // namespace dapps
