// Simulated serverless platforms, calibrated from the paper (see
// calibration.h): Dandelion (per-request sandboxes, compute/comm core
// split + PI controller), MicroVM platforms with a warm-pool hot ratio
// (Firecracker fresh/snapshot, gVisor), Spin/Wasmtime (pooled instances,
// slower generated code, cooperative scheduling), Dandelion-hybrid
// (§7.5's D-hybrid with threads-per-core sweeps), and the Knative+
// Firecracker / Dandelion Azure-trace node models (§7.8).
#ifndef SRC_SIM_PLATFORM_MODELS_H_
#define SRC_SIM_PLATFORM_MODELS_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/stats.h"
#include "src/policy/elasticity.h"
#include "src/policy/retry.h"
#include "src/sim/calibration.h"
#include "src/sim/event_queue.h"
#include "src/sim/workload.h"
#include "src/trace/azure_trace.h"

namespace dsim {

struct SimMetrics {
  // End-to-end request latencies in milliseconds.
  dbase::LatencyRecorder latency_ms;
  std::map<int, dbase::LatencyRecorder> per_app_latency_ms;
  // Committed memory (MB) and memory of actively-serving sandboxes (MB).
  dbase::TimeSeries committed_mb;
  dbase::TimeSeries active_mb;
  uint64_t cold_starts = 0;
  uint64_t warm_starts = 0;
  uint64_t completed = 0;
  // Fault/retry parity (Dandelion model only): injected sandbox crashes,
  // relaunches the shared dpolicy::RetryPolicy granted, launches a tripped
  // breaker fast-failed, and requests that terminated without completing
  // (retry budget exhausted or fast-failed).
  uint64_t crashes_injected = 0;
  uint64_t retries = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t failed = 0;
  dbase::Micros end_time_us = 0;
  // (time, comm cores) — the controller's allocation trace (Fig. 8).
  std::vector<std::pair<dbase::Micros, int>> comm_core_trace;

  double ColdFraction() const {
    const uint64_t total = cold_starts + warm_starts;
    return total == 0 ? 0.0 : static_cast<double>(cold_starts) / static_cast<double>(total);
  }
};

// ---------------------------------------------------------------- Dandelion

struct DandelionSimConfig {
  int cores = 4;
  int initial_comm_cores = 1;
  // Per compute-stage sandbox creation cost (Table 1 totals).
  dbase::Micros sandbox_us = Calibration::kDandelionCheriUs;
  dbase::Micros dispatch_us = Calibration::kDandelionDispatchUs;
  double compute_slowdown = 1.0;  // >1 for the rWasm backend.
  int comm_parallelism = 64;      // Green threads per comm core.
  bool enable_controller = true;
  dbase::Micros controller_interval_us = 30 * dbase::kMicrosPerMilli;
  // Builds the elasticity policy the simulated control plane executes — the
  // same dpolicy code the real runtime's ControlPlane runs, driven here from
  // the virtual-time event queue. Null runs paper-pi.
  std::function<std::unique_ptr<dpolicy::ElasticityPolicy>()> policy_factory;
  bool track_memory = false;
  // Fault/retry parity with the runtime dispatcher: every crash_every_n-th
  // compute-stage completion is a sandbox crash (0 = off), and the same
  // dpolicy::RetryPolicy the dispatcher executes decides relaunch, backoff,
  // and circuit breaking — in virtual time, keyed per app.
  uint64_t crash_every_n = 0;
  dpolicy::RetryOptions retry;
};

SimMetrics SimulateDandelion(const DandelionSimConfig& config,
                             const std::vector<SimRequest>& requests);

// ------------------------------------------------- MicroVM (FC / gVisor)

struct VmSimConfig {
  int cores = 4;
  // Probability an arriving request finds a warm sandbox (the paper uses
  // 97% for Firecracker, after Shahrad et al.'s 3.5%-cold observation).
  double hot_fraction = 0.97;
  // Cold path: host-serialized VMM setup + core-resident boot/restore.
  dbase::Micros cold_serial_us = Calibration::kFirecrackerSnapshotSerialUs;
  dbase::Micros cold_core_us = Calibration::kFirecrackerSnapshotCoreUs;
  // Extra time a cold request spends demand-paging the application's
  // working set through its first execution (§2.3: snapshot restores fault
  // in guest state lazily; large app stacks make first requests far slower
  // than the restore itself). Zero for the hello-world-sized functions of
  // Figs. 2/5/6; hundreds of ms for the realistic apps of Fig. 8.
  dbase::Micros cold_demand_paging_us = 0;
  double exec_overhead = Calibration::kVmExecOverhead;
  dbase::Micros warm_path_us = Calibration::kVmWarmPathUs;
  uint64_t seed = 0xF17ECA;

  static VmSimConfig FirecrackerFresh(int cores, double hot_fraction);
  static VmSimConfig FirecrackerSnapshot(int cores, double hot_fraction);
  static VmSimConfig Gvisor(int cores, double hot_fraction);
};

SimMetrics SimulateVmPlatform(const VmSimConfig& config,
                              const std::vector<SimRequest>& requests);

// ------------------------------------------------------------- Wasmtime

struct WasmtimeSimConfig {
  int cores = 4;
  dbase::Micros sandbox_us = Calibration::kWasmtimeSandboxUs;
  dbase::Micros dispatch_us = Calibration::kWasmtimeDispatchUs;
  double slowdown = Calibration::kWasmSlowdown;
};

SimMetrics SimulateWasmtime(const WasmtimeSimConfig& config,
                            const std::vector<SimRequest>& requests);

// ------------------------------------------------------------- D-hybrid

struct DHybridSimConfig {
  int cores = 4;
  int threads_per_core = 1;
  bool pinned = false;
  dbase::Micros sandbox_us = Calibration::kDandelionKvmUs;
  dbase::Micros dispatch_us = Calibration::kDandelionDispatchUs;
  // CPU burned per comm phase by the hybrid function's own networking
  // (socket setup, per-request protocol work) — the cost Dandelion's
  // cooperative comm engines amortize away (§7.5).
  dbase::Micros comm_cpu_us = 250;
  // Per-extra-thread context-switch/cache inflation on CPU time when
  // oversubscribed / unpinned.
  double ctx_switch_penalty = 0.04;
};

SimMetrics SimulateDHybrid(const DHybridSimConfig& config,
                           const std::vector<SimRequest>& requests);

// ------------------------------------------- Azure trace node models (§7.8)

struct TraceSimConfig {
  int cores = Calibration::kTraceNodeCores;
  // Knative-managed Firecracker pods.
  dbase::Micros pod_boot_us = Calibration::kFirecrackerSnapshotSerialUs +
                              Calibration::kFirecrackerSnapshotCoreUs;
  // A cold request additionally demand-pages the application working set
  // through its first execution (as in Fig. 8's realistic apps) — this is
  // what puts cold starts into the trace replay's p99 (§7.8: Dandelion
  // reduces p99 by ~46% vs Firecracker).
  dbase::Micros pod_cold_paging_us = 1200 * 1000;
  uint64_t guest_overhead_bytes = Calibration::kGuestOsOverheadBytes;
  dbase::Micros autoscaler_tick_us = Calibration::kAutoscalerTickUs;
  int max_pods_per_function = 32;
  // Dandelion per-request sandbox cost (process backend on x86, §7.8).
  dbase::Micros dandelion_sandbox_us = Calibration::kDandelionProcessX86Us;
  dbase::Micros memory_sample_interval_us = 1 * dbase::kMicrosPerSecond;
};

// Firecracker pods auto-scaled by the Knative KPA model. Memory committed =
// (ready + booting pods) x (function memory + guest OS overhead).
SimMetrics SimulateKnativeFirecrackerTrace(const TraceSimConfig& config,
                                           const dtrace::Trace& trace, uint64_t arrival_seed);

// Dandelion on the same node: a context exists only while its request runs.
SimMetrics SimulateDandelionTrace(const TraceSimConfig& config, const dtrace::Trace& trace,
                                  uint64_t arrival_seed);

}  // namespace dsim

#endif  // SRC_SIM_PLATFORM_MODELS_H_
