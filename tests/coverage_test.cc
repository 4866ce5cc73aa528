// Additional coverage: engine observability, frontend registration
// endpoint, simulator model details, SQL corner cases, DSL stress, and
// trace invariants that the primary suites do not reach.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/dsl/parser.h"
#include "src/func/builtins.h"
#include "src/http/http_parser.h"
#include "src/http/services.h"
#include "src/runtime/frontend.h"
#include "src/runtime/platform.h"
#include "src/sim/calibration.h"
#include "src/sim/platform_models.h"
#include "src/sql/operators.h"
#include "src/trace/azure_trace.h"

namespace {

using dbase::kMicrosPerSecond;

// ------------------------------------------------------ Engine observability

TEST(EngineStatsTest, QueueWaitPercentilesPopulated) {
  dandelion::PlatformConfig config;
  config.num_workers = 2;
  config.sleep_for_modeled_latency = false;
  dandelion::Platform platform(config);
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform
                  .RegisterCompositionDsl(
                      "composition Id(in) => out { echo(in = all in) => (out = out); }")
                  .ok());
  for (int i = 0; i < 20; ++i) {
    dfunc::DataSetList args;
    args.push_back(dfunc::DataSet{"in", {dfunc::DataItem{"", "x"}}});
    ASSERT_TRUE(platform.Invoke({"Id", std::move(args)}).ok());
  }
  const auto stats = platform.engine_stats();
  EXPECT_EQ(stats.compute_tasks, 20u);
  // Waits are recorded (p99 ≥ p50; both bounded by something sane).
  EXPECT_GE(stats.compute_wait_p99_us, stats.compute_wait_p50_us);
  EXPECT_LT(stats.compute_wait_p99_us, 10u * 1000 * 1000);
}

// ----------------------------------------------------------------- Frontend

std::string RoundTripHttp(uint16_t port, const dhttp::HttpRequest& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string wire = request.Serialize();
  EXPECT_EQ(write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
    if (response.find("\r\n\r\n") != std::string::npos) {
      break;
    }
  }
  close(fd);
  return response;
}

TEST(FrontendTest, RegisterCompositionEndpoint) {
  dandelion::PlatformConfig config;
  config.num_workers = 2;
  config.sleep_for_modeled_latency = false;
  dandelion::Platform platform(config);
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());

  dandelion::HttpFrontend frontend(&platform, 0);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  dhttp::HttpRequest reg;
  reg.method = dhttp::Method::kPost;
  reg.target = "/register/composition";
  reg.body = "composition Id(in) => out { echo(in = all in) => (out = out); }";
  auto response = dhttp::ParseResponse(RoundTripHttp(frontend.port(), reg));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 201);
  EXPECT_TRUE(platform.compositions().Contains("Id"));

  // Bad DSL → 400.
  reg.body = "composition Broken(";
  response = dhttp::ParseResponse(RoundTripHttp(frontend.port(), reg));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);

  // Unknown endpoint → 404.
  dhttp::HttpRequest bogus;
  bogus.method = dhttp::Method::kGet;
  bogus.target = "/nope";
  response = dhttp::ParseResponse(RoundTripHttp(frontend.port(), bogus));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 404);

  // Health endpoint.
  dhttp::HttpRequest health;
  health.method = dhttp::Method::kGet;
  health.target = "/healthz";
  response = dhttp::ParseResponse(RoundTripHttp(frontend.port(), health));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  frontend.Stop();
}

// ---------------------------------------------------------- Simulator models

TEST(SimModelTest, VmExecOverheadAppliedToWarmRequests) {
  dsim::AppShape shape;
  shape.compute_us = 10000;
  shape.compute_jitter = 0.0;
  const auto requests = dsim::PoissonStream(shape, 5.0, 2 * kMicrosPerSecond, 3);
  auto config = dsim::VmSimConfig::FirecrackerSnapshot(4, 1.0);  // All warm.
  config.exec_overhead = 1.5;
  const auto metrics = dsim::SimulateVmPlatform(config, requests);
  // warm path + 1.5x exec.
  EXPECT_NEAR(metrics.latency_ms.Median(), 15.0 + config.warm_path_us / 1000.0, 1.0);
}

TEST(SimModelTest, DandelionPaysSandboxPerPhase) {
  dsim::AppShape one_phase;
  one_phase.compute_us = 1000;
  one_phase.compute_jitter = 0.0;
  dsim::AppShape four_phases = one_phase;
  four_phases.phases = 4;
  four_phases.compute_us = 250;  // Same total compute.

  dsim::DandelionSimConfig config;
  config.cores = 4;
  config.enable_controller = false;
  const auto single =
      dsim::SimulateDandelion(config, dsim::PoissonStream(one_phase, 5, kMicrosPerSecond, 1));
  const auto chained =
      dsim::SimulateDandelion(config, dsim::PoissonStream(four_phases, 5, kMicrosPerSecond, 1));
  // Four sandboxes + dispatches instead of one: ~3 extra cost units.
  const double extra_ms =
      3.0 * (config.sandbox_us + config.dispatch_us) / 1000.0;
  EXPECT_NEAR(chained.latency_ms.Median() - single.latency_ms.Median(), extra_ms, 0.5);
}

TEST(SimModelTest, WasmtimePaysSandboxPerPhaseToo) {
  dsim::AppShape four_phases;
  four_phases.phases = 4;
  four_phases.compute_us = 250;
  four_phases.compute_jitter = 0.0;
  dsim::WasmtimeSimConfig config;
  config.cores = 4;
  const auto metrics = dsim::SimulateWasmtime(
      config, dsim::PoissonStream(four_phases, 5, kMicrosPerSecond, 2));
  const double expected_ms =
      4.0 * (config.sandbox_us + config.dispatch_us + 250 * config.slowdown) / 1000.0;
  EXPECT_NEAR(metrics.latency_ms.Median(), expected_ms, 0.5);
}

TEST(SimModelTest, GvisorBetweenFreshAndSnapshotFirecracker) {
  dsim::AppShape tiny;
  tiny.compute_us = dsim::Calibration::kMatmul1x1Us;
  tiny.compute_jitter = 0.0;
  const auto requests = dsim::PoissonStream(tiny, 10, 2 * kMicrosPerSecond, 5);
  const auto fresh =
      dsim::SimulateVmPlatform(dsim::VmSimConfig::FirecrackerFresh(4, 0.0), requests);
  const auto snap =
      dsim::SimulateVmPlatform(dsim::VmSimConfig::FirecrackerSnapshot(4, 0.0), requests);
  const auto gvisor = dsim::SimulateVmPlatform(dsim::VmSimConfig::Gvisor(4, 0.0), requests);
  EXPECT_GT(gvisor.latency_ms.Median(), snap.latency_ms.Median());
  EXPECT_LT(gvisor.latency_ms.Median(), fresh.latency_ms.Median());
}

TEST(SimModelTest, HotFractionMonotonicallyImprovesTail) {
  dsim::AppShape matmul;
  matmul.compute_us = dsim::Calibration::kMatmul128Us;
  matmul.compute_jitter = 0.0;
  const auto requests = dsim::PoissonStream(matmul, 200, 4 * kMicrosPerSecond, 7);
  double previous = 1e18;
  for (double hot : {0.90, 0.95, 0.99, 1.0}) {
    const auto metrics =
        dsim::SimulateVmPlatform(dsim::VmSimConfig::FirecrackerSnapshot(16, hot), requests);
    const double p995 = metrics.latency_ms.Percentile(99.5);
    EXPECT_LE(p995, previous * 1.05);  // Allow tiny sampling noise.
    previous = p995;
  }
}

// ------------------------------------------------------------- SQL corners

TEST(SqlCornerTest, SortByIsStable) {
  dsql::Table t("t");
  ASSERT_TRUE(t.AddColumn("k", dsql::Column::Ints({1, 1, 1, 1})).ok());
  ASSERT_TRUE(
      t.AddColumn("tag", dsql::Column::Strings({"first", "second", "third", "fourth"})).ok());
  auto sorted = dsql::SortBy(t, {{"k", false}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->GetColumn("tag").value()->strings(),
            (std::vector<std::string>{"first", "second", "third", "fourth"}));
}

TEST(SqlCornerTest, ComputedStringColumn) {
  dsql::Table t("t");
  ASSERT_TRUE(t.AddColumn("s", dsql::Column::Strings({"a", "b"})).ok());
  auto computed = dsql::WithComputedColumn(t, "copy", dsql::Col("s"));
  ASSERT_TRUE(computed.ok());
  EXPECT_EQ(computed->GetColumn("copy").value()->strings(),
            (std::vector<std::string>{"a", "b"}));
}

TEST(SqlCornerTest, FilterOnMissingColumnFailsCleanly) {
  dsql::Table t("t");
  ASSERT_TRUE(t.AddColumn("a", dsql::Column::Ints({1})).ok());
  auto filtered = dsql::Filter(t, dsql::Eq(dsql::Col("ghost"), dsql::Lit(int64_t{1})));
  EXPECT_FALSE(filtered.ok());
  EXPECT_EQ(filtered.status().code(), dbase::StatusCode::kNotFound);
}

TEST(SqlCornerTest, JoinWithEmptySides) {
  dsql::Table empty("e");
  ASSERT_TRUE(empty.AddColumn("k", dsql::Column::Ints({})).ok());
  dsql::Table full("f");
  ASSERT_TRUE(full.AddColumn("k2", dsql::Column::Ints({1, 2})).ok());
  auto left_empty = dsql::HashJoin(empty, "k", full, "k2");
  ASSERT_TRUE(left_empty.ok());
  EXPECT_EQ(left_empty->NumRows(), 0u);
  auto right_empty = dsql::HashJoin(full, "k2", empty, "k");
  ASSERT_TRUE(right_empty.ok());
  EXPECT_EQ(right_empty->NumRows(), 0u);
}

// ---------------------------------------------------------------- DSL stress

TEST(DslStressTest, LongChainParsesAndValidates) {
  std::string source = "composition Chain(v0) => v64 {\n";
  for (int i = 0; i < 64; ++i) {
    source += "  f" + std::to_string(i) + "(in = all v" + std::to_string(i) + ") => (v" +
              std::to_string(i + 1) + " = out);\n";
  }
  source += "}\n";
  auto ast = ddsl::ParseSingleComposition(source);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  auto graph = ddsl::CompositionGraph::FromAst(*ast);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->nodes().size(), 64u);
  EXPECT_EQ(graph->topo_order().front(), 0u);
  EXPECT_EQ(graph->topo_order().back(), 63u);
}

TEST(DslStressTest, CommentOnlySourceIsError) {
  EXPECT_FALSE(ddsl::ParseCompositions("// nothing here\n# nor here\n").ok());
}

TEST(DslStressTest, WideParameterLists) {
  std::string source = "composition Wide(";
  for (int i = 0; i < 20; ++i) {
    source += (i != 0 ? ", p" : "p") + std::to_string(i);
  }
  source += ") => out { f(a = all p0) => (out = o); }";
  auto ast = ddsl::ParseSingleComposition(source);
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(ast->params.size(), 20u);
}

// ------------------------------------------------------------ Trace details

TEST(TraceDetailTest, DurationsBoundedBelow) {
  dtrace::AzureTraceConfig config;
  config.num_functions = 30;
  config.duration_minutes = 3;
  const auto trace = dtrace::SynthesizeAzureTrace(config);
  for (const auto& arrival : trace.ToArrivals(9)) {
    EXPECT_GE(arrival.duration_us, 1000);
  }
}

TEST(TraceDetailTest, MemoryWithinConfiguredRange) {
  dtrace::AzureTraceConfig config;
  config.num_functions = 50;
  const auto trace = dtrace::SynthesizeAzureTrace(config);
  for (const auto& fn : trace.functions) {
    EXPECT_GE(fn.memory_bytes, 64ull << 20);
    EXPECT_LT(fn.memory_bytes, 513ull << 20);
  }
}

TEST(TraceDetailTest, ArrivalSeedsIndependentOfEachOther) {
  dtrace::AzureTraceConfig config;
  config.num_functions = 10;
  config.duration_minutes = 2;
  const auto trace = dtrace::SynthesizeAzureTrace(config);
  const auto a = trace.ToArrivals(1);
  const auto b = trace.ToArrivals(2);
  const auto a2 = trace.ToArrivals(1);
  ASSERT_EQ(a.size(), a2.size());
  EXPECT_EQ(a.size(), b.size());  // Counts fixed by the trace...
  bool any_difference = false;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    EXPECT_EQ(a[i].time_us, a2[i].time_us);  // Same seed → same placement.
    if (a[i].time_us != b[i].time_us) {
      any_difference = true;  // Different seed → different placement.
    }
  }
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------------------- Services hardening

TEST(ServiceHardeningTest, ObjectStoreHandlesHugeObjects) {
  dhttp::ObjectStoreService store;
  const std::string big(4 << 20, 'x');
  store.PutObject("/big", big);
  EXPECT_EQ(store.ObjectSize("/big"), big.size());
}

TEST(ServiceHardeningTest, SanitizerRejectsOversizedRequests) {
  std::string huge = "POST http://h.x/ HTTP/1.1\r\nContent-Length: ";
  const size_t body_size = 65 * 1024 * 1024;  // Over the 64 MiB guard.
  huge += std::to_string(body_size);
  huge += "\r\n\r\n";
  huge.append(body_size, 'a');
  EXPECT_FALSE(dhttp::SanitizeRequest(huge).ok());
}

}  // namespace
