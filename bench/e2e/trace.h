// Traced replay: the `lo` arrival schedule of a workload re-issued
// in-process through each layer's public functions, in the order the HTTP
// frontend calls them, with a span recorded around every call:
//
//   request                       the whole replayed request
//     http.parse                  dhttp::ScanMessageHead + ParseRequest
//     data.unmarshal              argument resolution (dfunc::UnmarshalSets,
//                                 or the raw-body set the frontend builds)
//     invoke                      Platform::Submit / Cluster::InvokeAsync
//                                 through to the completion callback
//       dispatch.submit           the synchronous part of the submit call
//       engine.queue, run         from the InvocationReport's queue and run
//                                 times (local workloads only: a remote
//                                 node's report does not cross the wire)
//     data.marshal                dfunc::MarshalSetsScatter of the result
//
// Spans stay in memory until the run ends. Sandbox phases and the dnet
// codec are probed separately, on the same functions and frames, because
// their cost sits inside `run` (or inside another process).
#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

#include <time.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/loadgen.h"
#include "bench/e2e/util.h"
#include "bench/e2e/workloads.h"
#include "src/net/wire.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"

namespace e2e {

struct Span {
  uint64_t trace = 0;
  int id = 0;
  int parent = 0;  // 0 = root.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One replayed request. The generator thread writes the fields up to
// submit1 and the handle; the completion writes the rest, then publishes
// them by releasing `state`.
struct ReplayRecord {
  enum State { kRunning = 0, kDone = 1, kFailed = 2 };
  uint32_t tmpl = 0;
  int64_t parse0 = 0, parse1 = 0, unmarshal1 = 0, submit0 = 0, submit1 = 0;
  int64_t done = 0, marshal1 = 0;
  std::vector<dbase::BufferSlice> response;  // Marshalled result chunks.
  std::atomic<int> state{kRunning};
  dandelion::InvocationHandle handle;
};

// Arguments exactly as the frontend derives them from a request's bytes.
inline dbase::Result<dfunc::DataSetList> ResolveArgs(dandelion::Platform& platform,
                                                    const Template& t,
                                                    dhttp::HttpRequest request) {
  dbase::BufferSlice body(dbase::Buffer::FromString(std::move(request.body)));
  if (!request.headers.Get("X-Dandelion-Raw").has_value()) {
    return dfunc::UnmarshalSets(body);
  }
  ASSIGN_OR_RETURN(auto graph, platform.compositions().Lookup(t.composition));
  if (graph->params().empty()) {
    return dbase::NotFound("composition has no parameter");
  }
  dfunc::DataSetList args;
  args.push_back(dfunc::DataSet{graph->params().front(), {dfunc::DataItem{"", std::move(body)}}});
  return args;
}

inline void SleepUntil(int64_t when_ns) {
  const timespec ts{static_cast<time_t>(when_ns / 1'000'000'000),
                    static_cast<long>(when_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

inline void IssueOne(Deployment& deployment, const Inputs& inputs,
                     const std::shared_ptr<ReplayRecord>& rec) {
  const Template& t = inputs.templates[rec->tmpl];
  rec->parse0 = NowNs();
  auto head = dhttp::ScanMessageHead(t.wire, 64 * 1024);
  auto request = dhttp::ParseRequest(t.wire);
  rec->parse1 = NowNs();
  if (!head.ok() || !request.ok()) {
    rec->state.store(ReplayRecord::kFailed, std::memory_order_release);
    return;
  }
  auto args = ResolveArgs(deployment.platform(), t, std::move(request).value());
  rec->unmarshal1 = NowNs();
  if (!args.ok()) {
    rec->state.store(ReplayRecord::kFailed, std::memory_order_release);
    return;
  }
  dandelion::InvocationRequest invocation;
  invocation.composition = t.composition;
  invocation.args = std::move(args).value();
  auto completion = [rec](dbase::Result<dfunc::DataSetList> result) {
    rec->done = NowNs();
    if (!result.ok()) {
      rec->marshal1 = rec->done;
      rec->state.store(ReplayRecord::kFailed, std::memory_order_release);
      return;
    }
    dfunc::DataSetList sets = std::move(result).value();
    rec->response = dfunc::MarshalSetsScatter(sets);
    rec->marshal1 = NowNs();
    rec->state.store(ReplayRecord::kDone, std::memory_order_release);
  };
  rec->submit0 = NowNs();
  dandelion::InvocationHandle handle;
  if (dandelion::Cluster* cluster = deployment.cluster(); cluster != nullptr) {
    handle = cluster->InvokeAsync(
        std::move(invocation),
        [completion](dbase::Result<dfunc::DataSetList> result, int) { completion(std::move(result)); });
  } else {
    handle = deployment.platform().Submit(std::move(invocation), completion);
  }
  rec->submit1 = NowNs();
  rec->handle = std::move(handle);
}

inline std::string Concat(const std::vector<dbase::BufferSlice>& chunks) {
  std::string out;
  for (const dbase::BufferSlice& chunk : chunks) {
    out.append(chunk.view());
  }
  return out;
}

// Layer of each span; a span's self time is charged to its layer.
inline const char* LayerOf(std::string_view span) {
  if (span == "http.parse" || span == "data.unmarshal" || span == "data.marshal") {
    return "frontend";
  }
  if (span == "dispatch.submit") {
    return "dispatcher";
  }
  if (span == "engine.queue") {
    return "engine.queue";
  }
  if (span == "run") {
    return "engine.run";
  }
  if (span == "invoke") {
    return "invoke";
  }
  return "replay";  // The root: the bench's own glue between calls.
}
inline constexpr std::array<const char*, 6> kLayers = {
    "frontend", "dispatcher", "engine.queue", "engine.run", "invoke", "replay"};

// The spans of one replayed request; the first is the request itself.
inline std::vector<Span> SpansOf(uint64_t trace, const ReplayRecord& rec) {
  // The completion runs on an engine thread and can finish before the
  // submitting thread reads the clock after Submit returns; the invoke span
  // then ends at that read, so that no child outlasts its parent.
  const int64_t invoke_end = std::max(rec.done, rec.submit1);
  const int64_t request_end = std::max(rec.marshal1, invoke_end);
  std::vector<Span> spans;
  spans.push_back({trace, 1, 0, "request", rec.parse0, request_end});
  spans.push_back({trace, 2, 1, "http.parse", rec.parse0, rec.parse1});
  spans.push_back({trace, 3, 1, "data.unmarshal", rec.parse1, rec.unmarshal1});
  spans.push_back({trace, 4, 1, "invoke", rec.submit0, invoke_end});
  spans.push_back({trace, 5, 4, "dispatch.submit", rec.submit0, rec.submit1});
  const dandelion::InvocationReport report = rec.handle.Report();
  if (report.instances_launched > 0 && report.run_time_us > 0) {
    // Report times are whole microseconds on the same clock; clamp them
    // into the invoke span so siblings never overlap.
    const int64_t submit = report.submit_time_us * 1000;
    const int64_t queue_end =
        std::clamp<int64_t>(submit + report.queue_time_us * 1000, rec.submit1, invoke_end);
    const int64_t run_end =
        std::clamp<int64_t>(submit + report.run_time_us * 1000, queue_end, invoke_end);
    spans.push_back({trace, 6, 4, "engine.queue", rec.submit1, queue_end});
    spans.push_back({trace, 7, 4, "run", queue_end, run_end});
  }
  spans.push_back({trace, 8, 1, "data.marshal", invoke_end, request_end});
  return spans;
}

// Self time of every span: its duration minus what its children cover
// (children of one parent never overlap by construction).
inline std::map<int, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<int, int64_t> self;
  for (const Span& s : spans) {
    self[s.id] += s.end_ns - s.start_ns;
    if (s.parent != 0) {
      self[s.parent] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

struct TraceSummary {
  uint64_t replayed = 0;
  uint64_t failed = 0;
  uint64_t wrong_body = 0;
  std::vector<double> lag_us;
  // Durations in microseconds, by span name / layer self time.
  std::map<std::string, std::vector<double>> span_us;
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> request_us;
  // Closure of the layer split, judged on the median request of each
  // request class: the self times of the layers (not the bench's own glue
  // between calls, the root's self time) of the requests between the 45th
  // and 55th percentile of request time, averaged and summed, against the
  // class's request p50. The largest relative gap is kept. (Per-layer p50s
  // do not add up to the request p50 when the layers' distributions are
  // skewed, so they are not summed.)
  double closure_error = 0;
  std::vector<Span> spans;
};

// Replays the schedules of `windows` back to back and summarises their
// spans. `keep_spans` retains every span for writing out.
inline TraceSummary Replay(Deployment& deployment, const Inputs& inputs,
                           const std::vector<PhasePlan>& windows, uint64_t seed, bool keep_spans) {
  TraceSummary summary;
  std::vector<std::shared_ptr<ReplayRecord>> records;
  for (const PhasePlan& window : windows) {
    Arrivals arrivals(inputs, seed, window);
    const int64_t start = NowNs();
    while (!arrivals.done()) {
      const int64_t due = start + arrivals.offset_ns();
      SleepUntil(due);
      summary.lag_us.push_back(NsToUs(NowNs() - due));
      auto rec = std::make_shared<ReplayRecord>();
      rec->tmpl = arrivals.tmpl();
      IssueOne(deployment, inputs, rec);
      records.push_back(std::move(rec));
      arrivals.Advance();
    }
    SleepUntil(start + static_cast<int64_t>(window.seconds * 1e9));
  }
  const int64_t give_up = NowNs() + 30'000'000'000;
  for (const auto& rec : records) {
    while (rec->state.load(std::memory_order_acquire) == ReplayRecord::kRunning &&
           NowNs() < give_up) {
      usleep(200);
    }
  }
  std::sort(summary.lag_us.begin(), summary.lag_us.end());

  // Per request class (the mix of mixed-shift is bimodal, so closure is
  // judged per class).
  struct Row {
    double total_us = 0;
    std::array<double, kLayers.size()> self_us{};
  };
  std::map<size_t, std::vector<Row>> class_rows;
  std::vector<size_t> class_of(inputs.templates.size(), 0);
  for (size_t c = 0; c < inputs.classes.size(); ++c) {
    for (const uint32_t id : inputs.classes[c].ids) {
      class_of[id] = c;
    }
  }
  uint64_t trace_id = 0;
  for (const auto& rec : records) {
    ++trace_id;
    ++summary.replayed;
    const int state = rec->state.load(std::memory_order_acquire);
    if (state != ReplayRecord::kDone) {
      ++summary.failed;
      continue;
    }
    if (!inputs.Verify(inputs.templates[rec->tmpl], Concat(rec->response))) {
      ++summary.wrong_body;
      continue;
    }
    const std::vector<Span> spans = SpansOf(trace_id, *rec);
    const std::map<int, int64_t> self = SelfTimes(spans);
    Row row;
    for (const Span& s : spans) {
      summary.span_us[s.name].push_back(NsToUs(s.end_ns - s.start_ns));
      const auto layer = std::find(kLayers.begin(), kLayers.end(), std::string_view(LayerOf(s.name)));
      row.self_us[static_cast<size_t>(layer - kLayers.begin())] += NsToUs(self.at(s.id));
    }
    for (size_t l = 0; l < kLayers.size(); ++l) {
      summary.self_us[kLayers[l]].push_back(row.self_us[l]);
    }
    row.total_us = NsToUs(spans.front().end_ns - spans.front().start_ns);
    summary.request_us.push_back(row.total_us);
    class_rows[class_of[rec->tmpl]].push_back(row);
    if (keep_spans) {
      summary.spans.insert(summary.spans.end(), spans.begin(), spans.end());
    }
  }
  for (auto& [name, values] : summary.span_us) {
    std::sort(values.begin(), values.end());
  }
  for (auto& [name, values] : summary.self_us) {
    std::sort(values.begin(), values.end());
  }
  std::sort(summary.request_us.begin(), summary.request_us.end());
  // Unless some class has enough requests to judge, closure is not shown.
  summary.closure_error = 1.0;
  bool judged = false;
  for (auto& [c, rows] : class_rows) {
    if (rows.size() < 20) {
      continue;  // Too few to judge.
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.total_us < b.total_us; });
    const size_t first = rows.size() * 45 / 100;
    const size_t last = rows.size() * 55 / 100;
    double sum = 0;
    for (size_t i = first; i < last; ++i) {
      for (size_t l = 0; l < kLayers.size(); ++l) {
        sum += kLayers[l] == std::string_view("replay") ? 0 : rows[i].self_us[l];
      }
    }
    const double split_us = sum / static_cast<double>(last - first);
    const double p50 = Median([&rows] {
      std::vector<double> totals;
      for (const Row& row : rows) {
        totals.push_back(row.total_us);
      }
      return totals;
    }());
    const double error = std::abs(split_us - p50) / p50;
    summary.closure_error = judged ? std::max(summary.closure_error, error) : error;
    judged = true;
  }

  // The dnet codec on this workload's real frames: the invoke body a router
  // would send for each replayed request, and the outcome body carrying the
  // result it got back.
  size_t probes = 0;
  for (size_t i = 0; i < records.size() && probes < 1000; ++i) {
    const ReplayRecord& rec = *records[i];
    if (rec.state.load(std::memory_order_acquire) != ReplayRecord::kDone) {
      continue;
    }
    const Template& t = inputs.templates[rec.tmpl];
    auto request = dhttp::ParseRequest(t.wire);
    auto args = request.ok() ? ResolveArgs(deployment.platform(), t, std::move(request).value())
                             : dbase::Result<dfunc::DataSetList>(request.status());
    const std::string response = Concat(rec.response);
    auto sets = dfunc::UnmarshalSets(std::string_view(response));
    if (!args.ok() || !sets.ok()) {
      continue;
    }
    dnet::WireInvoke invoke;
    invoke.composition = t.composition;
    invoke.args = std::move(args).value();
    invoke.invocation_id = i + 1;
    const int64_t e0 = NowNs();
    const std::vector<dbase::BufferSlice> frame = dnet::EncodeInvoke(invoke);
    const int64_t e1 = NowNs();
    dnet::WireOutcome outcome;
    outcome.sets = std::move(sets).value();
    const dbase::BufferSlice body(dbase::Buffer::FromString(Concat(dnet::EncodeOutcome(outcome))));
    const int64_t d0 = NowNs();
    auto decoded = dnet::DecodeOutcome(body);
    const int64_t d1 = NowNs();
    if (!decoded.ok() || frame.empty()) {
      continue;
    }
    summary.span_us["net.encode"].push_back(NsToUs(e1 - e0));
    summary.span_us["net.decode"].push_back(NsToUs(d1 - d0));
    if (keep_spans) {
      summary.spans.push_back({i + 1, 9, 0, "net.encode", e0, e1});
      summary.spans.push_back({i + 1, 10, 0, "net.decode", d0, d1});
    }
    ++probes;
  }
  std::sort(summary.span_us["net.encode"].begin(), summary.span_us["net.encode"].end());
  std::sort(summary.span_us["net.decode"].begin(), summary.span_us["net.decode"].end());
  return summary;
}

inline void WriteSpans(FILE* out, std::string_view workload, const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"workload\":%s,\"trace\":%llu,\"span\":%d,\"parent\":%d,\"name\":%s,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 JsonString(workload).c_str(), static_cast<unsigned long long>(s.trace), s.id,
                 s.parent, JsonString(s.name).c_str(), NsToUs(s.start_ns), NsToUs(s.end_ns));
  }
}

// ---------------------------------------------------------- sandbox probes

// SandboxTimings of each probe, in whole microseconds; each sorted.
struct SandboxProbe {
  uint64_t runs = 0;
  uint64_t wrong_body = 0;
  std::vector<double> load_us;
  std::vector<double> setup_us;
  std::vector<double> execute_us;
  std::vector<double> output_us;
};

// Direct SandboxExecutor::Execute runs of the workload's heaviest compute
// function on its own inputs, under the backend and spec the server uses.
inline SandboxProbe ProbeSandbox(const WorkloadSpec& spec, dandelion::Platform& platform,
                                 const Inputs& inputs, int count) {
  SandboxProbe probe;
  dandelion::IsolationBackend backend = dandelion::IsolationBackend::kThread;
  dfunc::FunctionSpec function{.name = "echo", .body = dfunc::EchoFunction, .binary_bytes = 0};
  const RequestClass* source = &inputs.classes.front();
  switch (spec.id) {
    case Workload::kEchoHttp:
      break;
    case Workload::kClusterWire:
      function = {.name = "echo", .body = dfunc::EchoFunction};  // As dandelion_node registers it.
      break;
    case Workload::kMatmulCold:
      backend = dandelion::IsolationBackend::kProcess;
      function = {.name = "matmul", .body = dfunc::MatMulFunction};
      break;
    case Workload::kMixedShift:
      function = {.name = "matmul", .body = dfunc::MatMulFunction};
      source = &inputs.classes.back();
      break;
  }
  auto executor = dandelion::CreateSandboxExecutor(backend);
  for (int i = 0; i < count; ++i) {
    const Template& t = inputs.templates[source->ids[static_cast<size_t>(i) % source->ids.size()]];
    auto request = dhttp::ParseRequest(t.wire);
    if (!request.ok()) {
      continue;
    }
    auto args = ResolveArgs(platform, t, std::move(request).value());
    auto context = dandelion::MemoryContext::Create(
        function.context_bytes, nullptr, backend == dandelion::IsolationBackend::kProcess);
    if (!args.ok() || !context.ok() || !(*context)->StoreInputSets(*args).ok()) {
      continue;
    }
    const dandelion::ExecOutcome outcome =
        executor->Execute(function, **context, dandelion::SandboxOptions{});
    ++probe.runs;
    if (!outcome.status.ok() || !inputs.VerifySets(t, outcome.outputs)) {
      ++probe.wrong_body;
      continue;
    }
    probe.load_us.push_back(static_cast<double>(outcome.timings.load_us));
    probe.setup_us.push_back(static_cast<double>(outcome.timings.setup_us));
    probe.execute_us.push_back(static_cast<double>(outcome.timings.execute_us));
    probe.output_us.push_back(static_cast<double>(outcome.timings.output_us));
  }
  for (std::vector<double>* v : {&probe.load_us, &probe.setup_us, &probe.execute_us, &probe.output_us}) {
    std::sort(v->begin(), v->end());
  }
  return probe;
}

}  // namespace e2e

#endif  // BENCH_E2E_TRACE_H_
