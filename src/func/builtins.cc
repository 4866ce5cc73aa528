#include "src/func/builtins.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/base/rng.h"
#include "src/base/string_util.h"

namespace dfunc {

std::string EncodeInt64Array(const std::vector<int64_t>& values) {
  std::string out;
  out.reserve(values.size() * 8);
  for (int64_t v : values) {
    const uint64_t u = static_cast<uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<char>((u >> (8 * b)) & 0xff));
    }
  }
  return out;
}

dbase::Result<std::vector<int64_t>> DecodeInt64Array(std::string_view payload) {
  if (payload.size() % 8 != 0) {
    return dbase::InvalidArgument("int64 array payload size not a multiple of 8");
  }
  std::vector<int64_t> values(payload.size() / 8);
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t u = 0;
    for (int b = 7; b >= 0; --b) {
      u = (u << 8) | static_cast<uint8_t>(payload[i * 8 + static_cast<size_t>(b)]);
    }
    values[i] = static_cast<int64_t>(u);
  }
  return values;
}

std::vector<int64_t> MakeMatrix(int n, uint64_t seed) {
  dbase::Rng rng(seed);
  std::vector<int64_t> m(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (auto& v : m) {
    v = rng.UniformInt(-8, 7);
  }
  return m;
}

std::vector<int64_t> MultiplyMatrices(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b, int n) {
  std::vector<int64_t> c(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const int64_t aik = a[static_cast<size_t>(i) * n + k];
      if (aik == 0) {
        continue;
      }
      for (int j = 0; j < n; ++j) {
        c[static_cast<size_t>(i) * n + j] += aik * b[static_cast<size_t>(k) * n + j];
      }
    }
  }
  return c;
}

dbase::Status MatMulFunction(FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string a_raw, ctx.SingleInput("A"));
  ASSIGN_OR_RETURN(std::string b_raw, ctx.SingleInput("B"));
  ASSIGN_OR_RETURN(auto a, DecodeInt64Array(a_raw));
  ASSIGN_OR_RETURN(auto b, DecodeInt64Array(b_raw));
  if (a.size() != b.size()) {
    return dbase::InvalidArgument("matrix size mismatch");
  }
  const int n = static_cast<int>(std::llround(std::sqrt(static_cast<double>(a.size()))));
  if (static_cast<size_t>(n) * static_cast<size_t>(n) != a.size() || n == 0) {
    return dbase::InvalidArgument("payload is not a square matrix");
  }
  auto c = MultiplyMatrices(a, b, n);
  ctx.EmitOutput("C", EncodeInt64Array(c));
  return dbase::OkStatus();
}

dbase::Status ArrayStatsFunction(FunctionCtx& ctx) {
  ASSIGN_OR_RETURN(std::string raw, ctx.SingleInput("data"));
  ASSIGN_OR_RETURN(auto values, DecodeInt64Array(raw));
  if (values.empty()) {
    return dbase::InvalidArgument("empty array");
  }
  // Sample every 8th element, like the paper's "sample of the elements".
  int64_t sum = 0;
  int64_t min = values.front();
  int64_t max = values.front();
  for (size_t i = 0; i < values.size(); i += 8) {
    sum += values[i];
    min = std::min(min, values[i]);
    max = std::max(max, values[i]);
  }
  ctx.EmitOutput("stats", dbase::StrFormat("sum=%lld min=%lld max=%lld",
                                           static_cast<long long>(sum),
                                           static_cast<long long>(min),
                                           static_cast<long long>(max)));
  return dbase::OkStatus();
}

dbase::Status EchoFunction(FunctionCtx& ctx) {
  const DataSet* in = ctx.input_set("in");
  if (in == nullptr) {
    return dbase::NotFound("echo expects input set 'in'");
  }
  for (const auto& item : in->items) {
    ctx.EmitOutput("out", item.data, item.key);
  }
  return dbase::OkStatus();
}

dbase::Status FailingFunction(FunctionCtx&) {
  return dbase::Internal("deliberate failure (test function)");
}

dbase::Status InfiniteLoopFunction(FunctionCtx& ctx) {
  // Spins until preempted. Thread-based backends preempt cooperatively via
  // the cancel flag; the process backend hard-kills regardless.
  std::atomic<uint64_t> counter{0};
  while (!ctx.cancelled()) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  return dbase::DeadlineExceeded("preempted by engine timeout");
}

std::vector<FunctionSpec> Builtins() {
  return {
      {.name = "matmul", .body = MatMulFunction},
      {.name = "array_stats", .body = ArrayStatsFunction},
      {.name = "echo", .body = EchoFunction},
      {.name = "fail", .body = FailingFunction},
      {.name = "spin", .body = InfiniteLoopFunction, .timeout_us = 50 * dbase::kMicrosPerMilli},
  };
}

}  // namespace dfunc
