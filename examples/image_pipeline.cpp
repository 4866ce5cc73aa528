// Image-compression pipeline (§7.6): fetch a QOI image from the object
// store, transcode it to PNG in a sandboxed compute function, store the
// result — the compute-intensive application of the Figure 8 multiplexing
// experiment. Demonstrates running the same composition on both isolation
// backends: in-process (cheri) and a forked, jailed process.
#include <cstdio>

#include "src/apps/image_app.h"
#include "src/base/clock.h"
#include "src/runtime/platform.h"
#include "src/runtime/sandbox.h"

namespace {

double RunOnBackend(dandelion::IsolationBackend backend) {
  dandelion::PlatformConfig platform_config;
  platform_config.num_workers = 4;
  platform_config.backend = backend;
  dandelion::Platform platform(platform_config);

  dapps::ImageAppConfig app_config;  // 96x64 RGBA → ~18 kB QOI, like §7.6.
  if (!dapps::InstallImageApp(platform, app_config).ok()) {
    return -1.0;
  }
  dbase::Stopwatch watch;
  auto status = dapps::RunImageApp(platform, 0);
  if (!status.ok() || *status != "stored") {
    std::fprintf(stderr, "  %s failed: %s\n",
                 std::string(dandelion::IsolationBackendName(backend)).c_str(),
                 status.ok() ? status->c_str() : status.status().ToString().c_str());
    return -1.0;
  }
  return watch.ElapsedMillis();
}

}  // namespace

int main() {
  std::printf("QOI -> PNG pipeline (fetch, transcode, store) per isolation backend:\n\n");
  for (auto backend : {dandelion::IsolationBackend::kThread, dandelion::IsolationBackend::kProcess}) {
    const double ms = RunOnBackend(backend);
    if (ms < 0) {
      return 1;
    }
    std::printf("  %-8s backend: %.1f ms end-to-end\n",
                std::string(dandelion::IsolationBackendName(backend)).c_str(), ms);
  }
  std::printf("\nEach run cold-started every sandbox on the critical path —\n"
              "no pre-provisioned state anywhere (the paper's 'true elasticity').\n");
  return 0;
}
