#include "src/runtime/registry.h"

#include <algorithm>
#include <utility>

#include "src/base/string_util.h"

namespace dandelion {

namespace {

const char* KindName(const Callee& callee) {
  if (std::holds_alternative<std::shared_ptr<const dfunc::FunctionSpec>>(callee)) {
    return "function";
  }
  if (std::holds_alternative<std::shared_ptr<const CommFunctionSpec>>(callee)) {
    return "communication function";
  }
  return "composition";
}

}  // namespace

Registry::Registry() {
  callees_.emplace(kHttpFunctionName, std::make_shared<const CommFunctionSpec>(HttpFunction()));
}

dbase::Status Registry::CheckFreeLocked(const std::string& name) const {
  auto it = callees_.find(name);
  if (it != callees_.end()) {
    return dbase::AlreadyExists("'" + name + "' is already registered as a " +
                                KindName(it->second));
  }
  return dbase::OkStatus();
}

dbase::Status Registry::Insert(std::string name, Callee callee) {
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(CheckFreeLocked(name));
  callees_.emplace(std::move(name), std::move(callee));
  return dbase::OkStatus();
}

dbase::Status Registry::Add(dfunc::FunctionSpec spec) {
  if (spec.name.empty()) {
    return dbase::InvalidArgument("function name may not be empty");
  }
  if (!spec.body) {
    return dbase::InvalidArgument("function body may not be empty: " + spec.name);
  }
  if (spec.timeout_us <= 0) {
    return dbase::InvalidArgument("function timeout must be positive: " + spec.name);
  }
  std::string name = spec.name;
  return Insert(std::move(name), std::make_shared<const dfunc::FunctionSpec>(std::move(spec)));
}

dbase::Status Registry::Add(CommFunctionSpec spec) {
  if (spec.name.empty() || !spec.handler) {
    return dbase::InvalidArgument("communication function needs a name and a handler");
  }
  if (spec.request_set.empty() || spec.response_set.empty()) {
    return dbase::InvalidArgument("communication function needs request/response set names");
  }
  std::string name = spec.name;
  return Insert(std::move(name), std::make_shared<const CommFunctionSpec>(std::move(spec)));
}

dbase::Status Registry::CheckCommNodesLocked(const ddsl::CompositionGraph& graph) const {
  for (const auto& node : graph.nodes()) {
    auto it = callees_.find(node.callee);
    const auto* comm =
        it == callees_.end() ? nullptr
                             : std::get_if<std::shared_ptr<const CommFunctionSpec>>(&it->second);
    if (comm == nullptr) {
      continue;
    }
    const CommFunctionSpec& spec = **comm;
    if (node.inputs.size() != 1 || node.inputs[0].set_name != spec.request_set) {
      return dbase::InvalidArgument(dbase::StrFormat(
          "composition '%s': %s nodes take exactly one input set named '%s'",
          graph.name().c_str(), node.callee.c_str(), spec.request_set.c_str()));
    }
    if (node.outputs.size() != 1 || node.outputs[0].set_name != spec.response_set) {
      return dbase::InvalidArgument(dbase::StrFormat(
          "composition '%s': %s nodes produce exactly one output set named '%s'",
          graph.name().c_str(), node.callee.c_str(), spec.response_set.c_str()));
    }
  }
  return dbase::OkStatus();
}

dbase::Status Registry::Add(std::vector<ddsl::CompositionGraph> graphs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = graphs.begin(); it != graphs.end(); ++it) {
    RETURN_IF_ERROR(CheckFreeLocked(it->name()));
    if (std::any_of(graphs.begin(), it, [&](const auto& g) { return g.name() == it->name(); })) {
      return dbase::AlreadyExists("composition '" + it->name() + "' is defined twice");
    }
    RETURN_IF_ERROR(CheckCommNodesLocked(*it));
  }
  for (auto& graph : graphs) {
    std::string name = graph.name();
    callees_.emplace(std::move(name),
                     std::make_shared<const ddsl::CompositionGraph>(std::move(graph)));
  }
  return dbase::OkStatus();
}

Callee Registry::Resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = callees_.find(name);
  return it == callees_.end() ? Callee{} : it->second;
}

dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> Registry::Lookup(
    const std::string& name) const {
  Callee callee = Resolve(name);
  if (auto* graph = std::get_if<std::shared_ptr<const ddsl::CompositionGraph>>(&callee)) {
    return std::move(*graph);
  }
  return dbase::NotFound("no registered composition named " + name);
}

std::vector<std::string> Registry::CompositionNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, callee] : callees_) {
      if (std::holds_alternative<std::shared_ptr<const ddsl::CompositionGraph>>(callee)) {
        names.push_back(name);
      }
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace dandelion
