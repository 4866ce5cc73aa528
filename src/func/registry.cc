#include "src/func/registry.h"

namespace dfunc {

dbase::Status FunctionRegistry::Register(FunctionSpec spec) {
  if (spec.name.empty()) {
    return dbase::InvalidArgument("function name may not be empty");
  }
  if (!spec.body) {
    return dbase::InvalidArgument("function body may not be empty: " + spec.name);
  }
  if (spec.timeout_us <= 0) {
    return dbase::InvalidArgument("function timeout must be positive: " + spec.name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = functions_.emplace(spec.name, spec);
  if (!inserted) {
    return dbase::AlreadyExists("function already registered: " + spec.name);
  }
  return dbase::OkStatus();
}

dbase::Result<FunctionSpec> FunctionRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return dbase::NotFound("no registered function named " + name);
  }
  return it->second;
}

bool FunctionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return functions_.count(name) > 0;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, spec] : functions_) {
    names.push_back(name);
  }
  return names;
}

size_t FunctionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return functions_.size();
}

}  // namespace dfunc
