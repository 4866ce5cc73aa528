// The compute-function programming interface (the "SDK", §4.2). A compute
// function is pure: it reads declared input sets, writes declared output
// sets, and performs no I/O or syscalls. It sees its data as sets of keyed
// items only: inputs through input_set()/SingleInput(), outputs through
// EmitOutput().
#ifndef SRC_FUNC_FUNCTION_H_
#define SRC_FUNC_FUNCTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/data.h"

namespace dfunc {

class FunctionCtx {
 public:
  explicit FunctionCtx(DataSetList inputs);

  const DataSetList& inputs() const { return inputs_; }
  // nullptr when the set is absent (declared-optional sets may be missing).
  const DataSet* input_set(std::string_view name) const { return FindSet(inputs_, name); }
  // Convenience: the first item of a set, or error if the set is empty/absent.
  dbase::Result<std::string> SingleInput(std::string_view set_name) const;

  // Appends an item to the named output set (created on first use). Takes a
  // Payload so pass-through outputs (re-emitting an input item) share the
  // input's bytes — no copy; a string's storage is adopted.
  void EmitOutput(std::string_view set_name, Payload data, std::string key = "");

  DataSetList& outputs() { return outputs_; }
  const DataSetList& outputs() const { return outputs_; }

  // --- Cooperative preemption ---------------------------------------------
  // Thread-based isolation backends cannot hard-kill a runaway function
  // (the process backend can). Long-running loops should poll cancelled()
  // — the stand-in for the paper's preemption of over-deadline tasks (§5
  // footnote 2). It turns true when the invocation-wide cancel flag (client
  // cancel / invocation deadline) is set or when this execution's absolute
  // deadline on dbase::MonotonicClock has passed.
  static constexpr dbase::Micros kNoDeadline = INT64_MAX;
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }
  void set_deadline(dbase::Micros deadline_us) { deadline_us_ = deadline_us; }
  bool cancelled() const {
    return (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
           (deadline_us_ != kNoDeadline &&
            dbase::MonotonicClock::Get()->NowMicros() >= deadline_us_);
  }

 private:
  DataSetList inputs_;
  DataSetList outputs_;
  const std::atomic<bool>* cancel_ = nullptr;
  dbase::Micros deadline_us_ = kNoDeadline;
};

// A compute function body. Returning a non-OK status fails the instance;
// the dispatcher converts it into an error signal on the output edges
// (§4.4). Must not block, must not touch global state.
using ComputeFunction = std::function<dbase::Status(FunctionCtx&)>;

// A compute function as it is registered (§5): in the paper users upload
// compiled binaries; here the body is linked in. The platform's one callee
// registry (src/runtime/registry.h) validates and holds it.
struct FunctionSpec {
  std::string name;
  ComputeFunction body;
  // Memory requirement declared at registration (like AWS Lambda, §5);
  // the dispatcher sizes the memory context from this.
  uint64_t context_bytes = 16 * 1024 * 1024;
  // Synthetic binary size. Nothing reads it: function bodies are linked in,
  // so no binary is loaded. Kept because bench/e2e sets it.
  uint64_t binary_bytes = 256 * 1024;
  // Preemption deadline for run-to-completion compute engines (§5 fn.2).
  // Must be positive; registration rejects anything else.
  dbase::Micros timeout_us = 5 * dbase::kMicrosPerSecond;
};

}  // namespace dfunc

#endif  // SRC_FUNC_FUNCTION_H_
