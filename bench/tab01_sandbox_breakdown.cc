// Table 1: Dandelion's sandbox-creation latency breakdown per isolation
// backend for a 1x1 int64 matmul. Two halves:
//   (a) measurements of this repository's two backends on the host that
//       runs the bench — marshal, create sandbox, execute, output readback.
//       cheri is the in-process thread backend (no sandbox to create);
//       process is a real fork() on the critical path;
//   (b) the paper's totals for all four of its backends, read from
//       dsim::Calibration. KVM and rWasm have no runtime backend here.
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/benchutil/table.h"
#include "src/func/builtins.h"
#include "src/runtime/jail.h"
#include "src/runtime/memory_context.h"
#include "src/runtime/sandbox.h"
#include "src/sim/calibration.h"

namespace {

struct Breakdown {
  double marshal_us = 0;
  double setup_us = 0;   // Sandbox creation proper (fork).
  double execute_us = 0;
  double output_us = 0;
  double total_us = 0;
};

Breakdown MeasureBackend(dandelion::IsolationBackend backend, int iterations,
                         dandelion::JailMode jail = dandelion::JailMode::kRequired) {
  auto executor = dandelion::CreateSandboxExecutor(backend, jail);
  dfunc::FunctionSpec spec;
  spec.name = "matmul";
  spec.body = dfunc::MatMulFunction;
  spec.context_bytes = 1 << 20;

  // 1x1 matrices, as in the paper's table.
  dfunc::DataSetList inputs;
  inputs.push_back(dfunc::DataSet{"A", {dfunc::DataItem{"", dfunc::EncodeInt64Array({3})}}});
  inputs.push_back(dfunc::DataSet{"B", {dfunc::DataItem{"", dfunc::EncodeInt64Array({7})}}});

  dbase::OnlineStats marshal, setup, execute, output, total;
  for (int i = 0; i < iterations; ++i) {
    auto context = dandelion::MemoryContext::Create(
        spec.context_bytes, nullptr,
        /*shared=*/backend == dandelion::IsolationBackend::kProcess);
    if (!context.ok()) {
      continue;
    }
    dbase::Stopwatch watch;
    (void)(*context)->StoreInputSets(inputs);
    const double marshal_us = static_cast<double>(watch.ElapsedMicros());

    dandelion::ExecOutcome outcome =
        executor->Execute(spec, **context, dandelion::SandboxOptions{});
    if (!outcome.status.ok()) {
      continue;
    }
    marshal.Add(marshal_us);
    setup.Add(static_cast<double>(outcome.timings.setup_us));
    execute.Add(static_cast<double>(outcome.timings.execute_us));
    output.Add(static_cast<double>(outcome.timings.output_us));
    total.Add(marshal_us + static_cast<double>(outcome.timings.Total()));
  }

  Breakdown result;
  result.marshal_us = marshal.mean();
  result.setup_us = setup.mean();
  result.execute_us = execute.mean();
  result.output_us = output.mean();
  result.total_us = total.mean();
  return result;
}

}  // namespace

int main() {
  dbench::PrintHeader("Table 1: sandbox-creation latency breakdown, 1x1 matmul [us]");

  const std::vector<dandelion::IsolationBackend> backends = {
      dandelion::IsolationBackend::kThread,
      dandelion::IsolationBackend::kProcess,
  };

  constexpr int kWarmup = 20;
  constexpr int kIterations = 300;

  dbench::Table table({"row", "cheri", "process"});
  std::vector<Breakdown> results;
  for (auto backend : backends) {
    (void)MeasureBackend(backend, kWarmup);
    results.push_back(MeasureBackend(backend, kIterations));
  }
  auto row = [&](const char* name, double Breakdown::* field) {
    std::vector<std::string> cells = {name};
    for (const auto& result : results) {
      cells.push_back(dbench::Table::Num(result.*field, 1));
    }
    table.AddRow(std::move(cells));
  };
  row("Marshal requests", &Breakdown::marshal_us);
  row("Create sandbox", &Breakdown::setup_us);
  row("Execute function", &Breakdown::execute_us);
  row("Get/send output", &Breakdown::output_us);
  row("Total (measured here)", &Breakdown::total_us);
  table.Print();

  using dsim::Calibration;
  auto us = [](dbase::Micros value) { return std::to_string(value); };
  dbench::Table reference({"row", "cheri", "rwasm", "process", "kvm"});
  reference.AddRow({"Paper total (Arm Morello)", us(Calibration::kDandelionCheriUs),
                    us(Calibration::kDandelionRwasmUs), us(Calibration::kDandelionProcessUs),
                    us(Calibration::kDandelionKvmUs)});
  reference.AddRow({"Paper total (x86, Linux 5.15)", "-", us(Calibration::kDandelionRwasmX86Us),
                    us(Calibration::kDandelionProcessX86Us), us(Calibration::kDandelionKvmX86Us)});
  reference.Print();

  dbench::PrintNote("cheri runs the body inline, so it creates no sandbox; the process row's"
                    " 'create sandbox' is a real fork() on this machine. rwasm and kvm are"
                    " paper numbers only: this repo models them in dsim, not in the runtime");

  // Syscall-jail overhead on the process backend: identical fork()+wait
  // runs on a jailed executor and on one built with the jail off.
  // The delta is the prctl(NO_NEW_PRIVS) + filter-load cost on the cold
  // path — the price of SECCOMP_RET_KILL_PROCESS containment per launch.
  dbench::PrintHeader("Table 1 addendum: seccomp jail cost, process backend [us]");
  const bool jail_available = dandelion::SandboxCapabilities::Get().seccomp_filter;
  dbench::Table jail_table({"row", "jail on", "jail off", "delta"});
  if (jail_available) {
    constexpr auto kOff = dandelion::JailMode::kOff;
    (void)MeasureBackend(dandelion::IsolationBackend::kProcess, kWarmup);
    const Breakdown jailed = MeasureBackend(dandelion::IsolationBackend::kProcess, kIterations);
    (void)MeasureBackend(dandelion::IsolationBackend::kProcess, kWarmup, kOff);
    const Breakdown open =
        MeasureBackend(dandelion::IsolationBackend::kProcess, kIterations, kOff);
    auto jail_row = [&](const char* name, double Breakdown::* field) {
      jail_table.AddRow({name, dbench::Table::Num(jailed.*field, 1),
                         dbench::Table::Num(open.*field, 1),
                         dbench::Table::Num(jailed.*field - open.*field, 1)});
    };
    jail_row("Create sandbox", &Breakdown::setup_us);
    jail_row("Execute function", &Breakdown::execute_us);
    jail_row("Total (measured here)", &Breakdown::total_us);
  } else {
    jail_table.AddRow({"Total (measured here)", "-", "-", "-"});
  }
  jail_table.Print();
  dbench::PrintNote(jail_available
                        ? "jail on = seccomp-BPF allowlist installed post-fork in the child"
                        : "seccomp filters unavailable on this kernel: " +
                              std::string(dandelion::SandboxCapabilities::Get().detail));
  return 0;
}
