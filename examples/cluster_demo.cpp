// Multi-node cluster demo (§5's cluster manager): three worker nodes behind
// a load balancer, each running the same registered functions and
// compositions; invocations are spread round-robin or to the least-loaded
// node. The paper uses Dirigent for this role. Here the nodes are
// in-process Platform instances, each serving the dnet node wire on its
// own loopback port, so every invocation crosses the same wire a spawned
// dandelion_node would.
#include <cstdio>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/func/builtins.h"
#include "src/runtime/cluster.h"

int main() {
  dandelion::Cluster::Config config;
  config.num_nodes = 3;
  config.policy = dandelion::LoadBalancePolicy::kRoundRobin;
  config.node_config.num_workers = 2;
  config.node_config.backend = dandelion::IsolationBackend::kThread;
  dandelion::Cluster cluster(config);

  if (!cluster.RegisterFunction({.name = "matmul", .body = dfunc::MatMulFunction}).ok() ||
      !cluster
           .RegisterCompositionDsl(
               "composition MatMul(A, B) => C { matmul(A = all A, B = all B) => (C = C); }")
           .ok()) {
    std::fprintf(stderr, "registration failed\n");
    return 1;
  }

  constexpr int kRequests = 24;
  const int n = 64;
  dbase::Latch latch(kRequests);
  std::atomic<int> ok_count{0};

  dbase::Stopwatch watch;
  for (int i = 0; i < kRequests; ++i) {
    // First-class requests travel through the load balancer: the deadline
    // and priority class follow the invocation to whichever node serves it.
    dandelion::InvocationRequest request;
    request.composition = "MatMul";
    request.args.push_back(dfunc::DataSet{
        "A", {dfunc::DataItem{"", dfunc::EncodeInt64Array(
                                      dfunc::MakeMatrix(n, 1 + static_cast<uint64_t>(i)))}}});
    request.args.push_back(dfunc::DataSet{
        "B", {dfunc::DataItem{"", dfunc::EncodeInt64Array(dfunc::MakeMatrix(n, 99))}}});
    request.priority = dandelion::PriorityClass::kBatch;
    cluster.InvokeAsync(std::move(request),
                        [&](dbase::Result<dfunc::DataSetList> result, int) {
                          if (result.ok()) {
                            ok_count.fetch_add(1);
                          }
                          latch.CountDown();
                        });
  }
  latch.Wait();
  const double ms = watch.ElapsedMillis();

  std::printf("%d matmul invocations across %d nodes in %.1f ms (%d ok)\n", kRequests,
              cluster.num_nodes(), ms, ok_count.load());
  const auto peers = cluster.Stats().peers;
  const auto splits = cluster.CoreSplits();
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    std::printf("  node %d served %llu invocations (%d compute / %d comm cores)\n", node,
                static_cast<unsigned long long>(peers[static_cast<size_t>(node)].served),
                splits[static_cast<size_t>(node)].compute_workers,
                splits[static_cast<size_t>(node)].comm_workers);
  }
  cluster.Shutdown();
  return 0;
}
