// Figure 8: multiplexing an I/O-intensive application (distributed log
// processing, Fig. 3) with a compute-intensive one (QOI→PNG image
// compression) under bursty load. Paper result: Firecracker is bimodal
// (warm vs. cold) with relative variance of 389%/1495%; Wasmtime lets
// compute hog cooperative threads (log p99 inflates); Dandelion stays
// stable (≈1-3% relative variance) and its controller grows the comm-core
// allocation from 1 to ~4 during the I/O burst.
#include <cstdio>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/base/string_util.h"
#include "src/benchutil/table.h"
#include "src/img/png.h"
#include "src/img/qoi.h"
#include "src/policy/elasticity.h"
#include "src/sim/calibration.h"
#include "src/sim/platform_models.h"
#include "src/sim/workload.h"

namespace {

using dsim::Calibration;

// Measures the real QOI→PNG transcode of the ~18 kB test image on this
// host, to sanity-check the calibrated compute time.
double MeasureTranscodeUs() {
  const dimg::Image image = dimg::MakeTestImage(96, 64, 4, 42);
  const std::string qoi = dimg::QoiEncode(image);
  dbase::Stopwatch watch;
  constexpr int kReps = 10;
  for (int i = 0; i < kReps; ++i) {
    auto png = dimg::TranscodeQoiToPng(qoi);
    if (!png.ok()) {
      return -1.0;
    }
  }
  return static_cast<double>(watch.ElapsedMicros()) / kReps;
}

struct AppSummary {
  double mean_ms = 0;
  double p99_ms = 0;
  double rel_variance = 0;
};

AppSummary Summarize(const dbase::LatencyRecorder& latency) {
  AppSummary out;
  out.mean_ms = latency.Mean();
  out.p99_ms = latency.Percentile(99);
  dbase::OnlineStats stats;
  for (double v : latency.samples()) {
    stats.Add(v);
  }
  out.rel_variance = stats.relative_variance_percent();
  return out;
}

}  // namespace

int main() {
  dbench::PrintHeader("Figure 8: multiplexing log processing (I/O) + image compression (compute)");

  constexpr int kCores = 16;
  constexpr int kLogApp = 1;
  constexpr int kImageApp = 2;
  const dbase::Micros kSegment = 5 * dbase::kMicrosPerSecond;

  // Log processing: two HTTP round-trips (auth, then parallel shard
  // fetches) with light compute — I/O-bound, ~26 ms of latency budget.
  dsim::AppShape log_app;
  log_app.app_id = kLogApp;
  log_app.phases = 2;
  log_app.comm_us = 10500;
  log_app.compute_us = 1200;
  log_app.compute_jitter = 0.05;

  // Image compression: fetch + QOI→PNG transcode + store, compute-bound.
  dsim::AppShape image_app;
  image_app.app_id = kImageApp;
  image_app.phases = 1;
  image_app.comm_us = 4000;
  image_app.compute_us = 13000;
  image_app.compute_jitter = 0.05;

  // Bursty profiles, out of phase with each other (the figure's alternating
  // load waves). Peaks push the node to ~70-80% utilization so cold starts
  // and cooperative-scheduling interference actually queue.
  const std::vector<dsim::RateSegment> log_profile = {
      {kSegment, 90}, {kSegment, 350}, {kSegment, 90}, {kSegment, 300}, {kSegment, 70}};
  const std::vector<dsim::RateSegment> image_profile = {
      {kSegment, 420}, {kSegment, 110}, {kSegment, 480}, {kSegment, 110}, {kSegment, 380}};

  const auto requests = dsim::MergeStreams({dsim::BurstyStream(log_app, log_profile, 0xF18A),
                                            dsim::BurstyStream(image_app, image_profile, 0xF18B)});

  dbench::Table table({"platform", "app", "avg [ms]", "p99 [ms]", "rel. variance [%]"});
  auto add_rows = [&](const char* platform, const dsim::SimMetrics& metrics) {
    for (const auto& [app, label] :
         std::vector<std::pair<int, const char*>>{{kImageApp, "image compression"},
                                                  {kLogApp, "log processing"}}) {
      auto it = metrics.per_app_latency_ms.find(app);
      if (it == metrics.per_app_latency_ms.end()) {
        continue;
      }
      const AppSummary summary = Summarize(it->second);
      table.AddRow({platform, label, dbench::Table::Num(summary.mean_ms, 1),
                    dbench::Table::Num(summary.p99_ms, 1),
                    dbench::Table::Num(summary.rel_variance, 1)});
    }
  };

  // Dandelion with the elasticity control plane (paper's PI policy). A
  // modest green-thread budget per comm core means the I/O burst genuinely
  // needs more comm cores — the controller's job.
  dsim::DandelionSimConfig dandelion;
  dandelion.cores = kCores;
  dandelion.sandbox_us = Calibration::kDandelionKvmX86Us;
  dandelion.enable_controller = true;
  dandelion.comm_parallelism = 8;
  const auto d_metrics = dsim::SimulateDandelion(dandelion, requests);
  add_rows("Dandelion", d_metrics);

  // Firecracker with snapshots, 97% hot (x86 host: ~11 ms serialized
  // restore share, as in Fig. 6).
  auto fc_config = dsim::VmSimConfig::FirecrackerSnapshot(kCores, 0.97);
  fc_config.cold_serial_us = 11 * 1000;
  // Realistic app stacks (OpenCV / HTML templating) demand-page their
  // working set through the first post-restore request.
  fc_config.cold_demand_paging_us = 200 * 1000;
  const auto fc_metrics = dsim::SimulateVmPlatform(fc_config, requests);
  add_rows("Firecracker (97% hot)", fc_metrics);

  // Spin/Wasmtime: per-request instances, slower code, cooperative sharing.
  dsim::WasmtimeSimConfig wt_config;
  wt_config.cores = kCores;
  const auto wt_metrics = dsim::SimulateWasmtime(wt_config, requests);
  add_rows("Wasmtime", wt_metrics);

  table.Print();

  // Controller allocation trace: min/max comm cores over the run.
  int min_comm = kCores;
  int max_comm = 0;
  for (const auto& [t, cores] : d_metrics.comm_core_trace) {
    min_comm = std::min(min_comm, cores);
    max_comm = std::max(max_comm, cores);
  }
  dbench::PrintNote(dbase::StrFormat(
      "Dandelion controller scaled comm cores between %d and %d during the bursts", min_comm,
      max_comm));

  // --- Per-policy section: the same multiplexed bursts under each shipped
  // elasticity policy (src/policy/), with the comm-core range the policy
  // explored. All should hold both apps stable; they differ in how
  // aggressively the allocation chases the bursts.
  dbench::PrintHeader("Figure 8 (policy ablation): same workload, per elasticity policy");
  dbench::Table policy_table({"policy", "app", "avg [ms]", "p99 [ms]",
                              "rel. variance [%]", "comm cores [min-max]"});
  for (auto kind : {dpolicy::PolicyKind::kPaperPi, dpolicy::PolicyKind::kHysteresis,
                    dpolicy::PolicyKind::kConcurrencyTarget}) {
    dsim::DandelionSimConfig config = dandelion;
    config.policy_factory = [kind] { return dpolicy::CreatePolicy(kind); };
    const auto metrics = dsim::SimulateDandelion(config, requests);
    int lo = kCores;
    int hi = 0;
    for (const auto& [t, cores] : metrics.comm_core_trace) {
      lo = std::min(lo, cores);
      hi = std::max(hi, cores);
    }
    const std::string range = dbase::StrFormat("%d-%d", lo, hi);
    for (const auto& [app, label] :
         std::vector<std::pair<int, const char*>>{{kImageApp, "image compression"},
                                                  {kLogApp, "log processing"}}) {
      auto it = metrics.per_app_latency_ms.find(app);
      if (it == metrics.per_app_latency_ms.end()) {
        continue;
      }
      const AppSummary summary = Summarize(it->second);
      policy_table.AddRow({std::string(dpolicy::PolicyKindName(kind)), label,
                           dbench::Table::Num(summary.mean_ms, 1),
                           dbench::Table::Num(summary.p99_ms, 1),
                           dbench::Table::Num(summary.rel_variance, 1), range});
    }
  }
  policy_table.Print();
  const double measured = MeasureTranscodeUs();
  dbench::PrintNote(dbase::StrFormat(
      "real QOI->PNG transcode here: %.1f ms (our encoder emits stored-deflate blocks); the"
      " calibrated %.0f ms matches the paper's OpenCV PNG pipeline with real zlib compression",
      measured / 1000.0, Calibration::kImageCompressUs / 1000.0));
  dbench::PrintNote("paper: D avg 18.2/27.9 ms with 1.3%/2.9% rel. variance; FC avg 20.4/25.6"
                    " ms with 389%/1495%; WT compression avg 53.3 ms, log p99 inflated");
  return 0;
}
