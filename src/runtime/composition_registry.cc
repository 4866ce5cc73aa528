#include "src/runtime/composition_registry.h"

#include <utility>

namespace dandelion {

dbase::Status CompositionRegistry::Register(ddsl::CompositionGraph graph) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = graph.name();
  auto [it, inserted] =
      graphs_.emplace(name, std::make_shared<const ddsl::CompositionGraph>(std::move(graph)));
  if (!inserted) {
    return dbase::AlreadyExists("composition already registered: " + name);
  }
  return dbase::OkStatus();
}

dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> CompositionRegistry::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return dbase::NotFound("no registered composition named " + name);
  }
  return it->second;
}

bool CompositionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.count(name) > 0;
}

std::vector<std::string> CompositionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, graph] : graphs_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace dandelion
