// Engineering microbenchmarks (google-benchmark) for the core primitives:
// queues, reactor timers, data marshalling, memory contexts, DSL parsing,
// HTTP parsing/sanitizing, matmul, image codecs, SSB operators, and the
// discrete-event simulator. Not a paper figure — regression tracking for
// the substrate the figures are built on.
#include <benchmark/benchmark.h>

#include "src/base/event_loop.h"
#include "src/base/queue.h"
#include "src/dsl/graph.h"
#include "src/dsl/parser.h"
#include "src/func/builtins.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/http/sanitizer.h"
#include "src/img/png.h"
#include "src/img/qoi.h"
#include "src/runtime/memory_context.h"
#include "src/sim/event_queue.h"
#include "src/sql/operators.h"
#include "src/sql/ssb_queries.h"

namespace {

void BM_MpmcQueuePushPop(benchmark::State& state) {
  dbase::MpmcQueue<int> queue;
  for (auto _ : state) {
    queue.Push(1);
    benchmark::DoNotOptimize(queue.TryPop());
  }
}
BENCHMARK(BM_MpmcQueuePushPop);

// Contended dispatch: every thread pushes and pops, the engines' pattern
// on one role's queue.
void BM_MpmcQueueContended(benchmark::State& state) {
  static dbase::MpmcQueue<int>* queue = nullptr;
  if (state.thread_index() == 0) {
    queue = new dbase::MpmcQueue<int>();
  }
  for (auto _ : state) {
    queue->Push(1);
    benchmark::DoNotOptimize(queue->TryPop());
  }
  if (state.thread_index() == 0) {
    delete queue;
    queue = nullptr;
  }
}
BENCHMARK(BM_MpmcQueueContended)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// Arm and cancel one 120 s timer, a router's remote-invoke timeout that the
// reply cancels, on a loop that has already armed and cancelled Arg of them.
void BM_ReactorTimerArmCancel(benchmark::State& state) {
  auto loop = dbase::EventLoop::Create();
  constexpr dbase::Micros kDelay = 120 * dbase::kMicrosPerSecond;
  for (int64_t i = 0; i < state.range(0); ++i) {
    (*loop)->CancelTimer((*loop)->AddTimer(kDelay, [] {}));
  }
  for (auto _ : state) {
    (*loop)->CancelTimer((*loop)->AddTimer(kDelay, [] {}));
  }
}
BENCHMARK(BM_ReactorTimerArmCancel)->Arg(0)->Arg(100000);

void BM_MarshalSets(benchmark::State& state) {
  dfunc::DataSetList sets;
  sets.push_back(dfunc::DataSet{"in", {dfunc::DataItem{"k", std::string(state.range(0), 'x')}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfunc::MarshalSets(sets));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MarshalSets)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ContextStoreLoad(benchmark::State& state) {
  auto context = dandelion::MemoryContext::Create(16 << 20, nullptr);
  dfunc::DataSetList sets;
  sets.push_back(dfunc::DataSet{"in", {dfunc::DataItem{"", std::string(state.range(0), 'x')}}});
  for (auto _ : state) {
    (void)(*context)->StoreInputSets(sets);
    benchmark::DoNotOptimize((*context)->LoadInputSets());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContextStoreLoad)->Arg(1024)->Arg(256 * 1024);

void BM_DslParseAndLower(benchmark::State& state) {
  constexpr const char* kDsl = R"(
composition RenderLogs(AccessToken) => HTMLOutput {
  Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
  HTTP(Request = each AuthRequest) => (AuthResponse = Response);
  FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
  HTTP(Request = each LogRequests) => (LogResponses = Response);
  Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
}
)";
  for (auto _ : state) {
    auto ast = ddsl::ParseSingleComposition(kDsl);
    benchmark::DoNotOptimize(ddsl::CompositionGraph::FromAst(*ast));
  }
}
BENCHMARK(BM_DslParseAndLower);

void BM_HttpParseRequest(benchmark::State& state) {
  dhttp::HttpRequest req;
  req.method = dhttp::Method::kPost;
  req.target = "http://svc.internal/path/to/object?v=1";
  req.headers.Add("X-Trace", "abc123");
  req.body = std::string(state.range(0), 'b');
  const std::string wire = req.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dhttp::ParseRequest(wire));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParseRequest)->Arg(128)->Arg(64 * 1024);

void BM_SanitizeRequest(benchmark::State& state) {
  dhttp::HttpRequest req;
  req.target = "http://storage.internal/bucket/key";
  const std::string wire = req.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dhttp::SanitizeRequest(wire));
  }
}
BENCHMARK(BM_SanitizeRequest);

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = dfunc::MakeMatrix(n, 1);
  const auto b = dfunc::MakeMatrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfunc::MultiplyMatrices(a, b, n));
  }
}
BENCHMARK(BM_Matmul)->Arg(1)->Arg(32)->Arg(128);

void BM_QoiRoundTrip(benchmark::State& state) {
  const dimg::Image image = dimg::MakeTestImage(96, 64, 4, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dimg::QoiDecode(dimg::QoiEncode(image)));
  }
}
BENCHMARK(BM_QoiRoundTrip);

void BM_QoiToPngTranscode(benchmark::State& state) {
  const std::string qoi = dimg::QoiEncode(dimg::MakeTestImage(96, 64, 4, 42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dimg::TranscodeQoiToPng(qoi));
  }
}
BENCHMARK(BM_QoiToPngTranscode);

void BM_SsbQ11(benchmark::State& state) {
  dsql::SsbConfig config;
  config.lineorder_rows = static_cast<uint64_t>(state.range(0));
  const dsql::SsbData data = dsql::GenerateSsb(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsql::RunQ11(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SsbQ11)->Arg(10000)->Arg(60000);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    dsim::EventQueue queue;
    dsim::FifoServer server(&queue, 4);
    for (int i = 0; i < 1000; ++i) {
      server.Submit(10, nullptr);
    }
    queue.RunAll();
    benchmark::DoNotOptimize(server.total_completed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

}  // namespace

BENCHMARK_MAIN();
