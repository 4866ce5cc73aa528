// Zero-copy fan-out sharing: an `each` fan-out of N instances over a large
// read-only `all` input. On the by-reference data plane (thread backend)
// every instance references the same refcounted payload, so the bytes
// physically copied per fan-out must stay ~flat as N grows; the marshalled
// data plane (process backend, MAP_SHARED contexts) copies the payload into
// every instance's context and grows linearly in N.
//
// Gate (enforced; non-zero exit on failure): with a 1 MiB read-only input,
// bytes copied for the whole N=64 fan-out must be <= 1.05x the N=1 cost
// plus a small fixed allowance for the per-instance ack seams. A regression
// that reintroduces per-instance input copies fails this immediately
// (copying would add ~64 MiB, four orders of magnitude over the allowance).
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/string_util.h"
#include "src/benchutil/table.h"
#include "src/func/data.h"
#include "src/func/function.h"
#include "src/runtime/platform.h"

namespace {

using dandelion::IsolationBackend;
using dandelion::Platform;
using dandelion::PlatformConfig;
using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

constexpr size_t kBlobBytes = 1 << 20;  // 1 MiB read-only shared input.
// Allowance for fixed per-fan-out seam copies (tiny per-instance acks and
// their read-back). Payload framing is excluded from the byte counters, so
// this stays orders of magnitude under one blob copy.
constexpr uint64_t kGateSlackBytes = 64 * 1024;

// Reads the shared payload (proving every instance really sees it) and
// emits a tiny ack — the realistic shape for filters/validators that scan
// large inputs and produce small verdicts.
dbase::Status TouchShared(dfunc::FunctionCtx& ctx) {
  const DataSet* piece = ctx.input_set("piece");
  const DataSet* payload = ctx.input_set("payload");
  if (piece == nullptr || payload == nullptr) {
    return dbase::NotFound("missing input set");
  }
  uint64_t checksum = 0;
  for (const auto& item : payload->items) {
    const std::string_view bytes = item.data;
    if (!bytes.empty()) {
      checksum += static_cast<unsigned char>(bytes.front()) +
                  static_cast<unsigned char>(bytes.back()) + bytes.size();
    }
  }
  ctx.EmitOutput("acks", dbase::StrFormat("%llu", static_cast<unsigned long long>(checksum)));
  return dbase::OkStatus();
}

struct FanoutCost {
  uint64_t copied = 0;
  uint64_t aliased = 0;
  double millis = 0.0;
  bool ok = false;
};

// One fan-out invocation: N single-byte pieces (one instance each) plus the
// shared blob, measured as data-plane counter deltas across the Invoke.
FanoutCost MeasureFanout(Platform& platform, int n) {
  DataSetList args;
  DataSet pieces{"pieces", {}};
  for (int i = 0; i < n; ++i) {
    pieces.items.push_back(DataItem{"", std::string(1, static_cast<char>('a' + i % 26))});
  }
  args.push_back(DataSet{"blob", {DataItem{"", std::string(kBlobBytes, 'B')}}});
  args.push_back(std::move(pieces));

  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  dbase::Stopwatch watch;
  auto result = platform.Invoke({"Share", std::move(args)});
  FanoutCost cost;
  cost.millis = watch.ElapsedMillis();
  const auto after = dfunc::DataPlaneStats::Get().snapshot();
  cost.copied = after.bytes_copied - before.bytes_copied;
  cost.aliased = after.bytes_aliased - before.bytes_aliased;
  cost.ok = result.ok() && (*result)[0].items.size() == static_cast<size_t>(n);
  return cost;
}

Platform MakePlatform(IsolationBackend backend) {
  PlatformConfig config;
  config.num_workers = 8;
  config.backend = backend;
  config.sleep_for_modeled_latency = false;
  return Platform(config);
}

bool Register(Platform& platform) {
  if (!platform.RegisterFunction({.name = "touch", .body = TouchShared}).ok()) {
    return false;
  }
  return platform
      .RegisterCompositionDsl(R"(
composition Share(blob, pieces) => acks {
  touch(piece = each pieces, payload = all blob) => (acks = acks);
}
)")
      .ok();
}

std::string Mib(uint64_t bytes) { return dbench::Table::Num(bytes / (1024.0 * 1024.0), 3); }

}  // namespace

int main() {
  dbench::PrintHeader(
      "Fan-out sharing: bytes copied per N-instance fan-out over a 1 MiB read-only input");

  Platform by_ref = MakePlatform(IsolationBackend::kThread);
  Platform marshalled = MakePlatform(IsolationBackend::kProcess);
  if (!Register(by_ref) || !Register(marshalled)) {
    std::fprintf(stderr, "registration failed\n");
    return 1;
  }
  (void)MeasureFanout(by_ref, 2);       // Warm-up (pools, lazy threads).
  (void)MeasureFanout(marshalled, 2);

  dbench::Table table({"N", "by-ref copied [MiB]", "by-ref aliased [MiB]", "by-ref [ms]",
                       "marshal copied [MiB]", "marshal [ms]"});

  uint64_t copied_n1 = 0;
  uint64_t copied_n64 = 0;
  bool all_ok = true;
  for (int n : {1, 4, 16, 64}) {
    const FanoutCost shared = MeasureFanout(by_ref, n);
    const FanoutCost copied = MeasureFanout(marshalled, n);
    all_ok = all_ok && shared.ok && copied.ok;
    if (n == 1) {
      copied_n1 = shared.copied;
    }
    if (n == 64) {
      copied_n64 = shared.copied;
    }
    table.AddRow({std::to_string(n), Mib(shared.copied), Mib(shared.aliased),
                  dbench::Table::Num(shared.millis, 2), Mib(copied.copied),
                  dbench::Table::Num(copied.millis, 2)});
  }
  table.Print();

  const uint64_t gate_limit =
      static_cast<uint64_t>(copied_n1 * 1.05) + kGateSlackBytes;
  const bool gate_ok = all_ok && copied_n64 <= gate_limit;
  dbench::PrintNote(dbase::StrFormat(
      "gate: N=64 by-ref copied %llu bytes vs limit %llu (1.05x N=1 cost %llu + %llu slack) — %s",
      static_cast<unsigned long long>(copied_n64), static_cast<unsigned long long>(gate_limit),
      static_cast<unsigned long long>(copied_n1),
      static_cast<unsigned long long>(kGateSlackBytes), gate_ok ? "PASS" : "FAIL"));
  dbench::PrintNote("by-ref (thread backend) hands one refcounted payload to all N instances;"
                    " marshal (process backend, MAP_SHARED contexts) must copy it into every"
                    " instance's context, so its copied column grows ~N x 1 MiB");
  if (!all_ok) {
    std::fprintf(stderr, "fan-out invocation failed\n");
  }
  return gate_ok ? 0 : 1;
}
