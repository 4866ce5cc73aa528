// Thread-safe name → composition graph catalog (the "Function / DAG
// Registry" box of Figure 4, composition half). Apps and tests register from
// any thread; the dispatcher looks graphs up on the reactor.
#ifndef SRC_RUNTIME_COMPOSITION_REGISTRY_H_
#define SRC_RUNTIME_COMPOSITION_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/dsl/graph.h"

namespace dandelion {

class CompositionRegistry {
 public:
  dbase::Status Register(ddsl::CompositionGraph graph);
  dbase::Result<std::shared_ptr<const ddsl::CompositionGraph>> Lookup(
      const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ddsl::CompositionGraph>> graphs_;
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_COMPOSITION_REGISTRY_H_
