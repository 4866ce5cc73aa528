// Figure 5: tail latency (p99) vs. throughput for a 1x1 matmul with 0% hot
// requests — pure sandbox-creation elasticity — on a 4-core Morello-class
// node. Systems: Dandelion x4 backends, Firecracker (fresh), Firecracker
// with snapshots, gVisor, Spin/Wasmtime. Paper result: Dandelion's
// backends stay sub-millisecond up to ~10^4 RPS; FC-snapshot saturates
// around 120 RPS; fresh FC boots >150 ms; Wasmtime peaks ~7000 RPS.
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/benchutil/table.h"
#include "src/sim/calibration.h"
#include "src/sim/platform_models.h"
#include "src/sim/workload.h"

namespace {

using dsim::Calibration;

std::string RunDandelion(dbase::Micros sandbox_us, const std::vector<dsim::SimRequest>& requests,
                         int cores) {
  dsim::DandelionSimConfig config;
  config.cores = cores;
  config.sandbox_us = sandbox_us;
  config.enable_controller = true;
  const auto metrics = dsim::SimulateDandelion(config, requests);
  const double p99 = metrics.latency_ms.Percentile(99);
  return p99 > 2000.0 ? ">2000" : dbench::Table::Num(p99, 2);
}

}  // namespace

int main() {
  dbench::PrintHeader("Figure 5: p99 latency [ms] vs RPS, 1x1 matmul, 0% hot, 4 cores");

  constexpr int kCores = 4;
  const dbase::Micros duration = 4 * dbase::kMicrosPerSecond;

  dsim::AppShape matmul;
  matmul.compute_us = Calibration::kMatmul1x1Us;
  matmul.compute_jitter = 0.0;

  dbench::Table table({"RPS", "D cheri", "D kvm", "D process", "D rwasm", "FC", "FC snapshot",
                       "gVisor", "Wasmtime"});

  for (double rps : {25.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 4000.0, 7000.0, 10000.0}) {
    const auto requests =
        dsim::PoissonStream(matmul, rps, duration, 0xF165 + static_cast<uint64_t>(rps));
    std::vector<std::string> row = {dbench::Table::Num(rps, 0)};

    // Dandelion backends (Morello Table-1 totals as the per-request
    // sandbox cost).
    row.push_back(RunDandelion(Calibration::kDandelionCheriUs, requests, kCores));
    row.push_back(RunDandelion(Calibration::kDandelionKvmUs, requests, kCores));
    row.push_back(RunDandelion(Calibration::kDandelionProcessUs, requests, kCores));
    row.push_back(RunDandelion(Calibration::kDandelionRwasmUs, requests, kCores));

    for (auto vm_config : {dsim::VmSimConfig::FirecrackerFresh(kCores, 0.0),
                           dsim::VmSimConfig::FirecrackerSnapshot(kCores, 0.0),
                           dsim::VmSimConfig::Gvisor(kCores, 0.0)}) {
      const auto metrics = dsim::SimulateVmPlatform(vm_config, requests);
      const double p99 = metrics.latency_ms.Percentile(99);
      row.push_back(p99 > 2000.0 ? ">2000" : dbench::Table::Num(p99, 1));
    }

    dsim::WasmtimeSimConfig wt_config;
    wt_config.cores = kCores;
    const auto wt = dsim::SimulateWasmtime(wt_config, requests);
    const double wt_p99 = wt.latency_ms.Percentile(99);
    row.push_back(wt_p99 > 2000.0 ? ">2000" : dbench::Table::Num(wt_p99, 2));

    table.AddRow(std::move(row));
  }
  table.Print();

  dbench::PrintNote("paper: D-cheri <90us unloaded and ~10^4 RPS peak; FC snapshot limited to"
                    " ~120 RPS by restore work; gVisor worse than FC-snapshot; WT ~7000 RPS");
  dbench::PrintNote("Hyperlight Wasm (reported, not plotted): 9.1 ms unloaded cold start");
  return 0;
}
