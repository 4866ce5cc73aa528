// Ablation (design choice called out in DESIGN.md / §7.5): what does the
// elasticity control plane buy over static core splits, and how do the
// shipped policies compare? Two experiments:
//
//  1. Policy vs static splits: a workload whose compute/comm mix shifts
//     over time — compute-heavy first half, I/O-heavy second half — run
//     under each dpolicy policy and under every static compute/comm split.
//     A static split can win one phase; only a controller tracks both.
//
//  2. Burst recovery (gated): after a long compute-only phase parks the
//     comm allocation at its floor, a sustained comm flood arrives. We
//     count controller ticks until the comm allocation recovers to what the
//     flood needs. HysteresisPolicy moves multiple cores per decision, so
//     it must recover in strictly fewer ticks than PaperPiPolicy's
//     one-core-per-tick crawl — the bench exits nonzero if it does not.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/base/string_util.h"
#include "src/benchutil/table.h"
#include "src/policy/elasticity.h"
#include "src/sim/calibration.h"
#include "src/sim/platform_models.h"
#include "src/sim/workload.h"

namespace {

using dsim::Calibration;

std::vector<dsim::SimRequest> MakeShiftingWorkload() {
  const dbase::Micros kHalf = 6 * dbase::kMicrosPerSecond;

  // Phase 1: compute-heavy (matmul-like).
  dsim::AppShape compute;
  compute.app_id = 1;
  compute.compute_us = Calibration::kMatmul128Us;
  compute.compute_jitter = 0.03;

  // Phase 2: I/O-heavy (fetch-and-compute with slow remote).
  dsim::AppShape io;
  io.app_id = 2;
  io.compute_us = Calibration::kPhaseComputeUs;
  io.comm_us = 6000;
  io.compute_jitter = 0.03;

  auto compute_stream =
      dsim::BurstyStream(compute, {{kHalf, 2500.0}, {kHalf, 100.0}}, 0xAB1A);
  auto io_stream = dsim::BurstyStream(io, {{kHalf, 200.0}, {kHalf, 9000.0}}, 0xAB1B);
  return dsim::MergeStreams({std::move(compute_stream), std::move(io_stream)});
}

// Compute-only warmup that parks the comm allocation low, then a sustained
// comm flood that needs most of the node's cores on communication.
std::vector<dsim::SimRequest> MakeBurstWorkload(dbase::Micros* burst_start_us) {
  const dbase::Micros kWarm = 3 * dbase::kMicrosPerSecond;
  const dbase::Micros kFlood = 4 * dbase::kMicrosPerSecond;
  *burst_start_us = kWarm;

  dsim::AppShape compute;
  compute.app_id = 1;
  compute.compute_us = Calibration::kMatmul128Us;
  compute.compute_jitter = 0.0;

  dsim::AppShape io;
  io.app_id = 2;
  io.compute_us = 300;
  io.comm_us = 8000;
  io.compute_jitter = 0.0;

  auto compute_stream = dsim::BurstyStream(
      compute, {{kWarm, 1500.0}, {kFlood, 200.0}}, 0xB0B0);
  // A tiny trickle of comm during warmup keeps the allocation at its floor
  // of one (a zero-comm workload would free even the last comm core).
  auto io_stream = dsim::BurstyStream(io, {{kWarm, 20.0}, {kFlood, 4000.0}}, 0xB0B1);
  return dsim::MergeStreams({std::move(compute_stream), std::move(io_stream)});
}

// Ticks from the burst start until the comm allocation first reaches
// `target_comm` (-1 if it never does).
int TicksToRecover(const dsim::SimMetrics& metrics, dbase::Micros burst_start_us,
                   int target_comm) {
  int ticks = 0;
  for (const auto& [t, comm] : metrics.comm_core_trace) {
    if (t < burst_start_us) {
      continue;
    }
    ++ticks;
    if (comm >= target_comm) {
      return ticks;
    }
  }
  return -1;
}

}  // namespace

int main() {
  dbench::PrintHeader("Ablation: elasticity policies vs static compute/comm splits");
  dbench::PrintNote("workload: compute-heavy first 6s (2500 RPS matmul), I/O-heavy last 6s"
                    " (9000 RPS fetch-and-compute) on 16 cores, comm parallelism 32/core");

  constexpr int kCores = 16;
  const auto requests = MakeShiftingWorkload();

  dbench::Table table({"configuration", "p99 compute app [ms]", "p99 I/O app [ms]",
                       "p99 overall [ms]"});

  auto run = [&](const std::string& label, bool controller, dpolicy::PolicyKind policy,
                 int comm_cores) {
    dsim::DandelionSimConfig config;
    config.cores = kCores;
    config.sandbox_us = Calibration::kDandelionKvmX86Us;
    config.enable_controller = controller;
    config.policy_factory = [policy] { return dpolicy::CreatePolicy(policy); };
    config.initial_comm_cores = comm_cores;
    config.comm_parallelism = 32;
    auto metrics = dsim::SimulateDandelion(config, requests);
    auto cell = [](double v) {
      return v > 5000.0 ? std::string(">5000") : dbench::Table::Num(v, 1);
    };
    const auto& per_app = metrics.per_app_latency_ms;
    table.AddRow({label,
                  cell(per_app.count(1) ? per_app.at(1).Percentile(99) : 0.0),
                  cell(per_app.count(2) ? per_app.at(2).Percentile(99) : 0.0),
                  cell(metrics.latency_ms.Percentile(99))});
  };

  for (auto kind : {dpolicy::PolicyKind::kPaperPi, dpolicy::PolicyKind::kHysteresis,
                    dpolicy::PolicyKind::kConcurrencyTarget}) {
    run(dbase::StrFormat("policy: %s (dynamic)", std::string(dpolicy::PolicyKindName(kind)).c_str()),
        true, kind, 1);
  }
  for (int comm : {1, 2, 4, 8, 12}) {
    run(dbase::StrFormat("static: %d comm / %d compute", comm, kCores - comm), false,
        dpolicy::PolicyKind::kPaperPi, comm);
  }
  table.Print();

  dbench::PrintNote("expected: small static comm allocations win the compute phase but drown in"
                    " the I/O phase (and vice versa); the dynamic policies track the mix —"
                    " paper-pi and hysteresis sit at or near the best column in every row, while"
                    " concurrency-target trades some I/O-phase p99 for its deliberately slow"
                    " Knative-style stable window (its burst reaction is the panic path)");

  // --- Burst recovery: hysteresis vs the paper's PI (gated) ----------------
  dbench::PrintHeader("Burst recovery: ticks until the comm allocation catches the flood");
  dbase::Micros burst_start_us = 0;
  const auto burst_requests = MakeBurstWorkload(&burst_start_us);
  // 4000 RPS x 8 ms comm = 32 concurrent; at 8 green threads per core the
  // flood needs ~4 comm cores to stop queueing — demand recovery past that.
  constexpr int kTargetComm = 4;

  auto recover = [&](dpolicy::PolicyKind kind) {
    dsim::DandelionSimConfig config;
    config.cores = kCores;
    config.sandbox_us = Calibration::kDandelionKvmX86Us;
    config.enable_controller = true;
    config.policy_factory = [kind] { return dpolicy::CreatePolicy(kind); };
    config.initial_comm_cores = 1;
    config.comm_parallelism = 8;
    return TicksToRecover(dsim::SimulateDandelion(config, burst_requests), burst_start_us,
                          kTargetComm);
  };

  const int pi_ticks = recover(dpolicy::PolicyKind::kPaperPi);
  const int hysteresis_ticks = recover(dpolicy::PolicyKind::kHysteresis);

  dbench::Table recovery({"policy", dbase::StrFormat("ticks to %d comm cores", kTargetComm)});
  recovery.AddRow({"paper-pi", pi_ticks < 0 ? "never" : std::to_string(pi_ticks)});
  recovery.AddRow({"hysteresis", hysteresis_ticks < 0 ? "never" : std::to_string(hysteresis_ticks)});
  recovery.Print();

  // PI never recovering at all (-1) is the strongest hysteresis win, not a
  // gate failure.
  const bool gate_ok =
      hysteresis_ticks > 0 && (pi_ticks < 0 || hysteresis_ticks < pi_ticks);
  dbench::PrintNote(dbase::StrFormat(
      "gate: hysteresis must recover in strictly fewer ticks than paper-pi — %s"
      " (hysteresis moves up to 4 cores per decision; the PI loop moves one per 30 ms tick)",
      gate_ok ? "PASS" : "FAIL"));
  if (!gate_ok) {
    std::fprintf(stderr, "GATE FAILED: hysteresis=%d ticks, paper-pi=%d ticks\n",
                 hysteresis_ticks, pi_ticks);
    return 1;
  }
  return 0;
}
