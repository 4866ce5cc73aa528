// Function registry: the dispatcher's catalog of registered compute-function
// "binaries" and their metadata (§5). In the paper users upload compiled
// binaries; here a binary is a native ComputeFunction plus a synthetic
// binary size that the engines use to model code loading from disk vs. the
// in-memory cache (§7.4 cached vs. uncached).
#ifndef SRC_FUNC_REGISTRY_H_
#define SRC_FUNC_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/func/function.h"

namespace dfunc {

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
  // Must be positive; Register rejects anything else.
  dbase::Micros timeout_us = 5 * dbase::kMicrosPerSecond;
};

class FunctionRegistry {
 public:
  dbase::Status Register(FunctionSpec spec);
  dbase::Result<FunctionSpec> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, FunctionSpec> functions_;
};

}  // namespace dfunc

#endif  // SRC_FUNC_REGISTRY_H_
