// Integration tests for the paper's applications running end-to-end on the
// real runtime: log processing (Fig. 3), Text2SQL (§7.7), the image
// pipeline (§7.6), and partitioned SSB query processing (§7.7/Fig. 9).
#include <gtest/gtest.h>

#include "src/apps/image_app.h"
#include "src/apps/log_app.h"
#include "src/apps/ssb_app.h"
#include "src/apps/text2sql_app.h"
#include "src/dsl/parser.h"
#include "src/http/http_parser.h"
#include "src/img/png.h"
#include "src/sql/ssb_queries.h"

namespace dapps {
namespace {

dandelion::PlatformConfig TestPlatformConfig(int workers = 4) {
  dandelion::PlatformConfig config;
  config.num_workers = workers;
  config.backend = dandelion::IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;  // Virtualize service latency.
  return config;
}

// ----------------------------------------------------------------- Log app

TEST(LogAppTest, EndToEndRendersAllShards) {
  dandelion::Platform platform(TestPlatformConfig());
  LogAppConfig config;
  config.num_shards = 3;
  config.lines_per_shard = 5;
  ASSERT_TRUE(InstallLogApp(platform, config).ok());
  auto html = RunLogApp(platform, config);
  ASSERT_TRUE(html.ok()) << html.status().ToString();
  EXPECT_NE(html->find("<html>"), std::string::npos);
  for (int s = 0; s < 3; ++s) {
    EXPECT_NE(html->find("shard" + std::to_string(s)), std::string::npos) << *html;
  }
  // 3 shard sections (instance per authorized endpoint).
  EXPECT_NE(html->find("id=\"shard-2\""), std::string::npos);
  EXPECT_EQ(html->find("id=\"shard-3\""), std::string::npos);
}

TEST(LogAppTest, BadTokenProducesEmptyRender) {
  dandelion::Platform platform(TestPlatformConfig());
  LogAppConfig config;
  ASSERT_TRUE(InstallLogApp(platform, config).ok());
  // Invoke with a wrong token: auth returns 401, FanOut forwards nothing,
  // the log-fetch HTTP node and Render are skipped (§4.4) → empty output.
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{"AccessToken", {dfunc::DataItem{"", "wrong-token"}}});
  auto result = platform.Invoke({"RenderLogs", std::move(args)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const dfunc::DataSet* html = dfunc::FindSet(*result, "HTMLOutput");
  ASSERT_NE(html, nullptr);
  EXPECT_TRUE(html->items.empty());
}

TEST(LogAppTest, DslMatchesListing2Shape) {
  auto ast = ddsl::ParseSingleComposition(kRenderLogsDsl);
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(ast->name, "RenderLogs");
  ASSERT_EQ(ast->nodes.size(), 5u);
  EXPECT_EQ(ast->nodes[0].callee, "Access");
  EXPECT_EQ(ast->nodes[1].callee, "HTTP");
  EXPECT_EQ(ast->nodes[2].callee, "FanOut");
  EXPECT_EQ(ast->nodes[3].callee, "HTTP");
  EXPECT_EQ(ast->nodes[4].callee, "Render");
}

// ---------------------------------------------------------------- Text2SQL

TEST(Text2SqlTest, AnswersPopulationQuestion) {
  dandelion::Platform platform(TestPlatformConfig());
  Text2SqlConfig config;
  config.llm_latency_us = 100;  // Virtual-latency quick test.
  config.db_latency_us = 50;
  ASSERT_TRUE(InstallText2SqlApp(platform, config).ok());
  auto answer = RunText2Sql(platform, "What are the most populous cities of Japan?");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_NE(answer->find("Tokyo"), std::string::npos) << *answer;
  EXPECT_NE(answer->find("Osaka"), std::string::npos);
  EXPECT_NE(answer->find("Nagoya"), std::string::npos);
}

TEST(Text2SqlTest, FallbackCompletionStillAnswers) {
  dandelion::Platform platform(TestPlatformConfig());
  Text2SqlConfig config;
  config.llm_latency_us = 50;
  config.db_latency_us = 50;
  ASSERT_TRUE(InstallText2SqlApp(platform, config).ok());
  auto answer = RunText2Sql(platform, "Completely unrelated question");
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->find("Q: Completely unrelated question"), std::string::npos);
}

TEST(Text2SqlTest, EmptyQuestionFailsCleanly) {
  dandelion::Platform platform(TestPlatformConfig());
  Text2SqlConfig config;
  config.llm_latency_us = 50;
  config.db_latency_us = 50;
  ASSERT_TRUE(InstallText2SqlApp(platform, config).ok());
  auto answer = RunText2Sql(platform, "   ");
  EXPECT_FALSE(answer.ok());
}

TEST(Text2SqlTest, ExtractSqlParsesFences) {
  dhttp::HttpResponse llm = dhttp::HttpResponse::Ok(
      "Sure thing!\n```sql\nSELECT name FROM cities LIMIT 1\n```\nHope that helps.");
  dfunc::DataSetList inputs;
  inputs.push_back(dfunc::DataSet{"Completion", {dfunc::DataItem{"", llm.Serialize()}}});
  dfunc::FunctionCtx ctx(std::move(inputs));
  ASSERT_TRUE(ExtractSqlFunction(ctx).ok());
  auto request = dhttp::ParseRequest(ctx.outputs()[0].items[0].data);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->body, "SELECT name FROM cities LIMIT 1");
}

// --------------------------------------------------------------- Image app

TEST(ImageAppTest, TranscodesAndStores) {
  dandelion::Platform platform(TestPlatformConfig());
  ImageAppConfig config;
  config.num_images = 2;
  ASSERT_TRUE(InstallImageApp(platform, config).ok());
  auto status = RunImageApp(platform, 0);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, "stored");
}

TEST(ImageAppTest, MissingImageReportsError) {
  dandelion::Platform platform(TestPlatformConfig());
  ImageAppConfig config;
  config.num_images = 1;
  ASSERT_TRUE(InstallImageApp(platform, config).ok());
  auto status = RunImageApp(platform, 99);  // No such object → 404 → compute fails.
  EXPECT_FALSE(status.ok());
}

TEST(ImageAppTest, StoredPngDecodes) {
  dandelion::Platform platform(TestPlatformConfig());
  ImageAppConfig config;
  config.num_images = 1;
  auto store_holder = std::make_shared<dhttp::ObjectStoreService>();
  ASSERT_TRUE(InstallImageApp(platform, config).ok());
  ASSERT_TRUE(RunImageApp(platform, 0).ok());
  // Fetch the stored PNG back through the mesh and verify its pixels match
  // the original QOI input.
  dhttp::HttpRequest get;
  get.method = dhttp::Method::kGet;
  get.target = "http://storage.internal/compressed/output.png";
  auto sanitized = dhttp::SanitizeRequest(get.Serialize());
  ASSERT_TRUE(sanitized.ok());
  auto result = platform.mesh().Call(*sanitized);
  ASSERT_EQ(result.response.status_code, 200);
  auto png = dimg::PngDecodeStored(result.response.body);
  ASSERT_TRUE(png.ok()) << png.status().ToString();
  EXPECT_EQ(png->width, config.image_width);
  EXPECT_EQ(png->height, config.image_height);
}

// ------------------------------------------------------------------ SSB app

class SsbAppTest : public ::testing::Test {
 protected:
  static SsbAppConfig SmallConfig() {
    SsbAppConfig config;
    config.data.lineorder_rows = 8000;
    config.data.customer_rows = 120;
    config.data.supplier_rows = 50;
    config.data.part_rows = 100;
    config.data.seed = 77;
    config.partitions = 4;
    return config;
  }
};

TEST_F(SsbAppTest, DimsBundleRoundTrip) {
  const dsql::SsbData data = dsql::GenerateSsb(SmallConfig().data);
  auto round = DeserializeDims(SerializeDims(data));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->date, data.date);
  EXPECT_EQ(round->customer, data.customer);
  EXPECT_EQ(round->supplier, data.supplier);
  EXPECT_EQ(round->part, data.part);
}

TEST_F(SsbAppTest, QueriesThroughCompositionMatchDirectExecution) {
  dandelion::Platform platform(TestPlatformConfig(6));
  const SsbAppConfig config = SmallConfig();
  auto handle = InstallSsbApp(platform, config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->store->object_count(), 5u);  // 4 partitions + dims.

  const dsql::SsbData data = dsql::GenerateSsb(config.data);
  for (int query_id : dsql::SsbQueryIds()) {
    auto via_platform = RunSsbQuery(platform, *handle, query_id);
    ASSERT_TRUE(via_platform.ok())
        << "query " << query_id << ": " << via_platform.status().ToString();

    auto direct = dsql::RunQueryOnPartition(query_id, data.lineorder, data);
    ASSERT_TRUE(direct.ok());
    auto merged = dsql::MergeQueryPartials(query_id, {*direct});
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*via_platform, merged->ToCsv()) << "query " << query_id;
  }
}

TEST_F(SsbAppTest, ParallelInstancesMatchPartitionCount) {
  dandelion::Platform platform(TestPlatformConfig(6));
  auto handle = InstallSsbApp(platform, SmallConfig());
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(RunSsbQuery(platform, *handle, 11).ok());
  // Compute instances: MakeSsbFetches + MakeDimFetch + 4×RunPartition +
  // MergePartials = 7.
  EXPECT_EQ(platform.dispatcher_stats().compute_instances, 7u);
  // Comm instances: one per partition fetch + one dim fetch = 5.
  EXPECT_EQ(platform.dispatcher_stats().comm_instances, 5u);
}

}  // namespace
}  // namespace dapps
