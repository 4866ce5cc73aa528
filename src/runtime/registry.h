// The platform's one callee catalog, the "Function / DAG Registry" box of
// Figure 4: compute functions, communication functions and compositions
// share one name table under one mutex, so a name names exactly one callee
// of one kind. Every registry starts with "HTTP". Apps and tests register
// from any thread during set-up; the dispatcher resolves a callee on the
// reactor at every node start. A mutex and not the reactor, because a post
// to an idle reactor costs 130–300 µs and every registration would pay it.
#ifndef SRC_RUNTIME_REGISTRY_H_
#define SRC_RUNTIME_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/dsl/graph.h"
#include "src/func/function.h"
#include "src/runtime/comm_function.h"

namespace dandelion {

// A resolved callee: the one function, communication function or
// composition registered under a name; monostate when none is.
using Callee = std::variant<std::monostate, std::shared_ptr<const dfunc::FunctionSpec>,
                            std::shared_ptr<const CommFunctionSpec>,
                            std::shared_ptr<const ddsl::CompositionGraph>>;

class Registry {
 public:
  Registry();

  // Each Add rejects an invalid entry with kInvalidArgument and a name any
  // kind already holds with kAlreadyExists. A function needs a name, a body
  // and a positive timeout; a communication function a name, a handler and
  // its two set names.
  dbase::Status Add(dfunc::FunctionSpec spec);
  dbase::Status Add(CommFunctionSpec spec);
  // Adds every composition or none. A communication-function node must take
  // exactly one input set, named the function's request set, and produce
  // exactly one output set, named its response set (§6.3).
  dbase::Status Add(std::vector<ddsl::CompositionGraph> graphs);

  // Allocation-free on a miss.
  Callee Resolve(const std::string& name) const;
  // The composition an invocation names; kNotFound for any other name.
  dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> Lookup(
      const std::string& name) const;
  // The compositions' names, sorted.
  std::vector<std::string> CompositionNames() const;

 private:
  dbase::Status Insert(std::string name, Callee callee);
  dbase::Status CheckFreeLocked(const std::string& name) const;
  dbase::Status CheckCommNodesLocked(const ddsl::CompositionGraph& graph) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Callee> callees_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_REGISTRY_H_
