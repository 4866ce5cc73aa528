// Built-in compute functions used across the paper's microbenchmarks:
//   - MatMul: N×N int64 matrix multiplication (Figures 2, 5, 6, 7).
//   - ArrayStats: sum/min/max over a sample of an int64 array — the
//     "fetch and compute" phase body (§7.4).
//   - Busy-spin and echo helpers for tests.
// Matrices and arrays travel as little-endian int64 payloads.
#ifndef SRC_FUNC_BUILTINS_H_
#define SRC_FUNC_BUILTINS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/func/function.h"

namespace dfunc {

// --- Payload helpers ---------------------------------------------------

// Encodes int64 values little-endian, 8 bytes each.
std::string EncodeInt64Array(const std::vector<int64_t>& values);
dbase::Result<std::vector<int64_t>> DecodeInt64Array(std::string_view payload);

// Generates a deterministic N×N matrix with entries in [-8, 8).
std::vector<int64_t> MakeMatrix(int n, uint64_t seed);

// Reference multiply for tests: row-major N×N.
std::vector<int64_t> MultiplyMatrices(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b, int n);

// --- Compute function bodies -------------------------------------------

// Input set "A" and "B": one item each, N×N int64 row-major. Output set
// "C": the product. N is inferred from the payload size.
dbase::Status MatMulFunction(FunctionCtx& ctx);

// Input set "data": one int64-array item. Output set "stats": one item with
// "sum=<s> min=<m> max=<M>" computed over a strided sample of the elements.
dbase::Status ArrayStatsFunction(FunctionCtx& ctx);

// Input set "in": items copied verbatim to output set "out".
dbase::Status EchoFunction(FunctionCtx& ctx);

// Always fails — for error-propagation tests.
dbase::Status FailingFunction(FunctionCtx& ctx);

// Spins forever; used to exercise the engine timeout/preemption path.
dbase::Status InfiniteLoopFunction(FunctionCtx& ctx);

// All of the above under their canonical names ("matmul", "array_stats",
// "echo", "fail", "spin"), for callers to register.
std::vector<FunctionSpec> Builtins();

}  // namespace dfunc

#endif  // SRC_FUNC_BUILTINS_H_
