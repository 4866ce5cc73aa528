// Tests for the cluster manager: cluster-wide registration, round-robin and
// least-loaded routing, correctness across nodes, and per-node accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/func/builtins.h"
#include "src/http/services.h"
#include "src/runtime/cluster.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

Cluster::Config SmallClusterConfig(int nodes, LoadBalancePolicy policy) {
  Cluster::Config config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.node_config.num_workers = 2;
  config.node_config.backend = IsolationBackend::kThread;
  config.node_config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList EchoArgs(const std::string& value) {
  DataSetList args;
  args.push_back(DataSet{"in", {DataItem{"", value}}});
  return args;
}

constexpr const char* kIdDsl =
    "composition Id(in) => out { echo(in = all in) => (out = out); }";

TEST(ClusterTest, RegistrationReachesEveryNode) {
  Cluster cluster(SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_TRUE(cluster.node(n).functions().Contains("echo"));
    EXPECT_TRUE(cluster.node(n).compositions().Contains("Id"));
  }
}

TEST(ClusterTest, CoreSplitsReportEveryNode) {
  Cluster::Config config = SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin);
  config.node_config.num_workers = 4;
  config.node_config.initial_comm_workers = 1;
  Cluster cluster(config);
  const auto splits = cluster.CoreSplits();
  ASSERT_EQ(splits.size(), 3u);
  for (const auto& split : splits) {
    EXPECT_EQ(split.compute_workers + split.comm_workers, 4);
    EXPECT_EQ(split.comm_workers, 1);  // No control plane: the initial split.
  }
  // A node-local role shift is visible in the cluster-wide view.
  ASSERT_EQ(cluster.node(0).workers().ShiftWorkers(-1), -1);
  EXPECT_EQ(cluster.CoreSplits()[0].comm_workers, 2);
}

TEST(ClusterTest, RegistrationFailurePropagates) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  EXPECT_FALSE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
}

TEST(ClusterTest, RoundRobinSpreadsEvenly) {
  Cluster cluster(SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());

  for (int i = 0; i < 9; ++i) {
    auto routed = cluster.Invoke({"Id", EchoArgs("x" + std::to_string(i))});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed.node_index, i % 3);
  }
  const auto peers = cluster.Stats().peers;
  ASSERT_EQ(peers.size(), 3u);
  for (const Cluster::PeerStats& peer : peers) {
    EXPECT_EQ(peer.served, 3u);
  }
}

TEST(ClusterTest, ResultsCorrectRegardlessOfNode) {
  Cluster cluster(SmallClusterConfig(4, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  for (int i = 0; i < 12; ++i) {
    const std::string payload = "payload-" + std::to_string(i);
    auto routed = cluster.Invoke({"Id", EchoArgs(payload)});
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.sets()[0].items[0].data, payload);
  }
}

TEST(ClusterTest, LeastLoadedAvoidsBusyNode) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kLeastLoaded));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  // A deliberately slow function to occupy node capacity.
  ASSERT_TRUE(cluster
                  .RegisterFunction({.name = "slow",
                                     .body =
                                         [](dfunc::FunctionCtx& ctx) {
                                           dbase::SpinFor(50 * dbase::kMicrosPerMilli);
                                           return dfunc::EchoFunction(ctx);
                                         }})
                  .ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  ASSERT_TRUE(cluster
                  .RegisterCompositionDsl(
                      "composition Slow(in) => out { slow(in = all in) => (out = out); }")
                  .ok());

  // First request picks node 0 (all empty) and stays in flight there.
  dbase::Latch slow_done(1);
  cluster.InvokeAsync({"Slow", EchoArgs("occupy")},
                      [&](dbase::Result<DataSetList> result, int node) {
                        EXPECT_TRUE(result.ok());
                        EXPECT_EQ(node, 0);
                        slow_done.CountDown();
                      });
  // While node 0 is busy, least-loaded must route elsewhere.
  auto routed = cluster.Invoke({"Id", EchoArgs("quick")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 1);
  ASSERT_TRUE(slow_done.WaitFor(5 * dbase::kMicrosPerSecond));
}

TEST(ClusterTest, ForEachNodeConfiguresServices) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kRoundRobin));
  int visited = 0;
  cluster.ForEachNode([&](Platform& node) {
    ++visited;
    node.mesh().Register("svc.internal", std::make_shared<dhttp::EchoService>());
  });
  EXPECT_EQ(visited, 2);
  EXPECT_TRUE(cluster.node(0).mesh().HasHost("svc.internal"));
  EXPECT_TRUE(cluster.node(1).mesh().HasHost("svc.internal"));
}

TEST(ClusterTest, UnknownCompositionFailsButReportsNode) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kRoundRobin));
  auto routed = cluster.Invoke({"Ghost", {}});
  EXPECT_FALSE(routed.ok());
  EXPECT_GE(routed.node_index, 0);
}

TEST(ClusterTest, SingleNodeClusterWorks) {
  Cluster cluster(SmallClusterConfig(1, LoadBalancePolicy::kLeastLoaded));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  auto routed = cluster.Invoke({"Id", EchoArgs("solo")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 0);
}

TEST(ClusterTest, RoutedRequestCarriesDeadlineAndClass) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kLeastLoaded));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());

  InvocationRequest request;
  request.composition = "Id";
  request.args = EchoArgs("routed");
  request.priority = PriorityClass::kBatch;
  request.deadline_us = InvocationRequest::DeadlineIn(5 * dbase::kMicrosPerSecond);
  auto routed = cluster.Invoke(std::move(request));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_GE(routed.node_index, 0);
  EXPECT_EQ(routed.sets()[0].items[0].data, "routed");

  // The serving node's dispatcher saw the request's class.
  uint64_t started = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    started += cluster.node(n).dispatcher_stats().invocations_started;
  }
  EXPECT_EQ(started, 1u);

  // A routed request whose deadline has already passed fails fast with
  // kDeadlineExceeded instead of hanging the caller.
  InvocationRequest late;
  late.composition = "Id";
  late.args = EchoArgs("late");
  late.deadline_us = 1;  // Monotonic epoch: long past.
  auto expired = cluster.Invoke(std::move(late));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), dbase::StatusCode::kDeadlineExceeded);
}

TEST(ClusterTest, ConcurrentInvocationsAcrossNodes) {
  Cluster cluster(SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  constexpr int kTotal = 48;
  dbase::Latch latch(kTotal);
  std::atomic<int> correct{0};
  for (int i = 0; i < kTotal; ++i) {
    cluster.InvokeAsync({"Id", EchoArgs("v" + std::to_string(i))},
                        [&, i](dbase::Result<DataSetList> result, int) {
                          if (result.ok() &&
                              (*result)[0].items[0].data == "v" + std::to_string(i)) {
                            correct.fetch_add(1);
                          }
                          latch.CountDown();
                        });
  }
  ASSERT_TRUE(latch.WaitFor(30 * dbase::kMicrosPerSecond));
  EXPECT_EQ(correct.load(), kTotal);
  const auto peers = cluster.Stats().peers;
  EXPECT_EQ(std::accumulate(peers.begin(), peers.end(), uint64_t{0},
                            [](uint64_t sum, const Cluster::PeerStats& peer) {
                              return sum + peer.served;
                            }),
            static_cast<uint64_t>(kTotal));
  for (const Cluster::PeerStats& peer : peers) {
    EXPECT_EQ(peer.served, static_cast<uint64_t>(kTotal / 3));
  }
}

}  // namespace
}  // namespace dandelion
