#include "src/sim/platform_models.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/base/rng.h"
#include "src/policy/elasticity.h"
#include "src/policy/kpa.h"

namespace dsim {
namespace {

void RecordLatency(SimMetrics* metrics, int app_id, dbase::Micros arrival, dbase::Micros end) {
  const double ms = dbase::MicrosToMillis(end - arrival);
  metrics->latency_ms.Record(ms);
  metrics->per_app_latency_ms[app_id].Record(ms);
  ++metrics->completed;
  metrics->end_time_us = std::max(metrics->end_time_us, end);
}

// Tracks committed bytes and appends MB points to a series.
class MemoryTracker {
 public:
  MemoryTracker(EventQueue* queue, dbase::TimeSeries* series, bool enabled)
      : queue_(queue), series_(series), enabled_(enabled) {}

  void Add(uint64_t bytes) {
    if (!enabled_) {
      return;
    }
    current_ += bytes;
    Record();
  }
  void Sub(uint64_t bytes) {
    if (!enabled_) {
      return;
    }
    current_ -= bytes;
    Record();
  }
  uint64_t current() const { return current_; }

 private:
  void Record() {
    series_->Add(queue_->now(), static_cast<double>(current_) / (1024.0 * 1024.0));
  }

  EventQueue* queue_;
  dbase::TimeSeries* series_;
  bool enabled_;
  uint64_t current_ = 0;
};

}  // namespace

// ---------------------------------------------------------------- Dandelion

SimMetrics SimulateDandelion(const DandelionSimConfig& config,
                             const std::vector<SimRequest>& requests) {
  SimMetrics metrics;
  EventQueue queue;

  const int total_cores = std::max(2, config.cores);
  int comm_cores = std::clamp(config.initial_comm_cores, 1, total_cores - 1);
  FifoServer compute(&queue, total_cores - comm_cores);
  FifoServer comm(&queue, comm_cores * config.comm_parallelism);
  MemoryTracker memory(&queue, &metrics.committed_mb, config.track_memory);

  // The compute stage of phase p, then the comm stage, then recurse.
  struct Chain {
    SimRequest req;
    int phase = 0;
  };

  // Fault/retry parity: the same dpolicy::RetryPolicy the runtime
  // dispatcher executes, driven in virtual time and keyed per app.
  dpolicy::RetryPolicy retry_policy(config.retry);
  const bool retry_enabled = config.retry.enabled;
  uint64_t compute_completions = 0;

  // Forward declarations via std::function for the recursive chain walk
  // (run_phase ↔ compute_stage_fn are mutually recursive: a phase runs a
  // compute stage, a granted retry relaunches the stage, a completed stage
  // advances the phase).
  std::function<void(std::shared_ptr<Chain>)> run_phase;
  std::function<void(std::shared_ptr<Chain>, int)> compute_stage_fn;
  run_phase = [&](std::shared_ptr<Chain> chain) {
    if (chain->phase >= chain->req.phases) {
      RecordLatency(&metrics, chain->req.app_id, chain->req.arrival_us, queue.now());
      ++metrics.cold_starts;  // Every Dandelion request cold-starts (§7).
      return;
    }
    ++chain->phase;
    const bool has_comm = chain->req.comm_us > 0;

    // Comm stage first (fetch), then compute on the fetched data (§7.4).
    if (has_comm) {
      comm.Submit(chain->req.comm_us,
                  [&, chain](dbase::Micros, dbase::Micros) { compute_stage_fn(chain, 0); });
    } else {
      compute_stage_fn(chain, 0);
    }
  };

  compute_stage_fn = [&](std::shared_ptr<Chain> chain, int attempt) {
    const std::string breaker_key = std::to_string(chain->req.app_id);
    // Breaker admission on fresh launches only, exactly like the runtime
    // dispatcher: a granted relaunch is never fast-failed mid-flight.
    if (attempt == 0 && retry_enabled) {
      const dpolicy::AdmitDecision admit = retry_policy.Admit(breaker_key, queue.now());
      if (!admit.allow) {
        ++metrics.breaker_fast_fails;
        ++metrics.failed;
        return;  // Fast-fail: the request terminates unserved.
      }
    }
    const auto service = static_cast<dbase::Micros>(
        config.dispatch_us + config.sandbox_us +
        static_cast<double>(chain->req.compute_us) * config.compute_slowdown);
    memory.Add(chain->req.context_bytes);
    compute.Submit(service, [&, chain, attempt, breaker_key](dbase::Micros, dbase::Micros) {
      // A crash is detected when the stage retires (the runtime parent
      // observes the child's wait status after the work was burned).
      const bool crashed =
          config.crash_every_n > 0 && (++compute_completions % config.crash_every_n == 0);
      memory.Sub(chain->req.context_bytes);
      if (crashed) {
        ++metrics.crashes_injected;
        if (retry_enabled) {
          const dpolicy::RetryDecision decision =
              retry_policy.OnFailure(breaker_key, dpolicy::FailureKind::kCrash,
                                     /*interactive=*/true, attempt, queue.now());
          if (decision.retry) {
            ++metrics.retries;
            queue.ScheduleAfter(decision.backoff_us, [&, chain, attempt] {
              compute_stage_fn(chain, attempt + 1);
            });
            return;
          }
        }
        ++metrics.failed;
        return;  // Budget exhausted (or retries disabled): the request fails.
      }
      if (retry_enabled) {
        retry_policy.OnSuccess(breaker_key);
      }
      run_phase(chain);
    });
  };

  for (const auto& req : requests) {
    queue.ScheduleAt(req.arrival_us, [&, req] {
      auto chain = std::make_shared<Chain>();
      chain->req = req;
      run_phase(chain);
    });
  }

  // Elasticity control plane (§5): the same dpolicy decision code the real
  // runtime's ControlPlane runs, driven from the virtual-time event queue.
  std::unique_ptr<dpolicy::ElasticityPolicy> policy =
      config.policy_factory ? config.policy_factory()
                            : dpolicy::CreatePolicy(dpolicy::PolicyKind::kPaperPi);
  uint64_t last_compute_in = 0, last_compute_out = 0, last_comm_in = 0, last_comm_out = 0;
  std::function<void()> control_tick = [&] {
    dpolicy::ElasticitySignals signals;
    signals.now_us = queue.now();
    signals.compute_workers = total_cores - comm_cores;
    signals.comm_workers = comm_cores;
    const uint64_t compute_in = compute.total_submitted();
    const uint64_t compute_out = compute.total_started();
    const uint64_t comm_in = comm.total_submitted();
    const uint64_t comm_out = comm.total_started();
    signals.compute_growth = static_cast<double>(compute_in - last_compute_in) -
                             static_cast<double>(compute_out - last_compute_out);
    signals.comm_growth = static_cast<double>(comm_in - last_comm_in) -
                          static_cast<double>(comm_out - last_comm_out);
    last_compute_in = compute_in;
    last_compute_out = compute_out;
    last_comm_in = comm_in;
    last_comm_out = comm_out;
    signals.compute_backlog = compute.queue_len();
    signals.comm_backlog = comm.queue_len();
    signals.comm_inflight = static_cast<double>(comm.busy());
    signals.comm_parallelism = config.comm_parallelism;

    const dpolicy::ElasticityDecision decision = policy->Decide(signals);
    // A workload that has issued no communication at all frees even the
    // last comm core — the allocation follows "the number of compute vs.
    // communication functions in the system" (§3). This overrides the
    // policy entirely (policies keep a one-comm-core floor, and letting
    // them actuate against a pinned zero would oscillate 0↔1 every tick);
    // the floor is a driver property, as in the runtime's WorkerSet.
    if (comm.total_submitted() == 0) {
      comm_cores = 0;
    } else {
      int want = decision.shift_toward_compute;
      while (want > 0 && comm_cores > 1) {
        --comm_cores;
        --want;
      }
      while (want < 0 && comm_cores < total_cores - 1) {
        ++comm_cores;
        ++want;
      }
    }
    compute.SetCapacity(total_cores - comm_cores);
    comm.SetCapacity(comm_cores * config.comm_parallelism);
    metrics.comm_core_trace.emplace_back(queue.now(), comm_cores);

    if (!queue.empty()) {
      queue.ScheduleAfter(config.controller_interval_us, control_tick);
    }
  };
  if (config.enable_controller && !requests.empty()) {
    queue.ScheduleAfter(config.controller_interval_us, control_tick);
  }

  queue.RunAll();
  return metrics;
}

// ------------------------------------------------- MicroVM (FC / gVisor)

VmSimConfig VmSimConfig::FirecrackerFresh(int cores, double hot_fraction) {
  VmSimConfig config;
  config.cores = cores;
  config.hot_fraction = hot_fraction;
  config.cold_serial_us = Calibration::kFirecrackerFreshSerialUs;
  config.cold_core_us = Calibration::kFirecrackerColdBootUs;
  return config;
}

VmSimConfig VmSimConfig::FirecrackerSnapshot(int cores, double hot_fraction) {
  VmSimConfig config;
  config.cores = cores;
  config.hot_fraction = hot_fraction;
  config.cold_serial_us = Calibration::kFirecrackerSnapshotSerialUs;
  config.cold_core_us = Calibration::kFirecrackerSnapshotCoreUs;
  return config;
}

VmSimConfig VmSimConfig::Gvisor(int cores, double hot_fraction) {
  VmSimConfig config;
  config.cores = cores;
  config.hot_fraction = hot_fraction;
  config.cold_serial_us = Calibration::kGvisorSerialUs;
  config.cold_core_us = Calibration::kGvisorColdCoreUs;
  config.exec_overhead = Calibration::kGvisorExecOverhead;
  return config;
}

SimMetrics SimulateVmPlatform(const VmSimConfig& config,
                              const std::vector<SimRequest>& requests) {
  SimMetrics metrics;
  EventQueue queue;
  FifoServer cores(&queue, config.cores);
  FifoServer vmm_serial(&queue, 1);  // Host-side VMM setup is serialized.
  dbase::Rng rng(config.seed);

  struct Chain {
    SimRequest req;
    int phase = 0;
  };

  std::function<void(std::shared_ptr<Chain>)> run_phase;
  run_phase = [&](std::shared_ptr<Chain> chain) {
    if (chain->phase >= chain->req.phases) {
      RecordLatency(&metrics, chain->req.app_id, chain->req.arrival_us, queue.now());
      return;
    }
    ++chain->phase;
    // The sandbox blocks on I/O without holding a core (guest OS yields):
    // comm is pure latency; compute occupies a core.
    auto compute_stage = [&, chain] {
      const auto service = static_cast<dbase::Micros>(
          static_cast<double>(chain->req.compute_us) * config.exec_overhead);
      cores.Submit(service,
                   [&, chain](dbase::Micros, dbase::Micros) { run_phase(chain); });
    };
    if (chain->req.comm_us > 0) {
      queue.ScheduleAfter(chain->req.comm_us, compute_stage);
    } else {
      compute_stage();
    }
  };

  for (const auto& req : requests) {
    const bool hot = rng.Bernoulli(config.hot_fraction);
    queue.ScheduleAt(req.arrival_us, [&, req, hot] {
      auto chain = std::make_shared<Chain>();
      chain->req = req;
      if (hot) {
        ++metrics.warm_starts;
        queue.ScheduleAfter(config.warm_path_us, [&, chain] { run_phase(chain); });
        return;
      }
      ++metrics.cold_starts;
      // Cold: serialized VMM setup, then core-resident boot/restore work
      // plus demand-paging the app's working set through the first run.
      vmm_serial.Submit(config.cold_serial_us, [&, chain](dbase::Micros, dbase::Micros) {
        cores.Submit(config.cold_core_us + config.cold_demand_paging_us,
                     [&, chain](dbase::Micros, dbase::Micros) { run_phase(chain); });
      });
    });
  }

  queue.RunAll();
  return metrics;
}

// ------------------------------------------------------------- Wasmtime

SimMetrics SimulateWasmtime(const WasmtimeSimConfig& config,
                            const std::vector<SimRequest>& requests) {
  SimMetrics metrics;
  EventQueue queue;
  FifoServer cores(&queue, config.cores);

  struct Chain {
    SimRequest req;
    int phase = 0;
  };

  std::function<void(std::shared_ptr<Chain>)> run_phase;
  run_phase = [&](std::shared_ptr<Chain> chain) {
    if (chain->phase >= chain->req.phases) {
      RecordLatency(&metrics, chain->req.app_id, chain->req.arrival_us, queue.now());
      return;
    }
    ++chain->phase;
    auto compute_stage = [&, chain] {
      // Per-phase module instantiation (Spin re-enters the component per
      // step of a chained workflow) plus slower generated code (§7.3).
      const auto service = static_cast<dbase::Micros>(
          config.sandbox_us + config.dispatch_us +
          static_cast<double>(chain->req.compute_us) * config.slowdown);
      cores.Submit(service,
                   [&, chain](dbase::Micros, dbase::Micros) { run_phase(chain); });
    };
    if (chain->req.comm_us > 0) {
      queue.ScheduleAfter(chain->req.comm_us, compute_stage);
    } else {
      compute_stage();
    }
  };

  for (const auto& req : requests) {
    queue.ScheduleAt(req.arrival_us, [&, req] {
      ++metrics.cold_starts;  // Instance-per-request, like Dandelion.
      auto chain = std::make_shared<Chain>();
      chain->req = req;
      run_phase(chain);
    });
  }

  queue.RunAll();
  return metrics;
}

// ------------------------------------------------------------- D-hybrid

namespace {

// Counting semaphore with FIFO waiters over the event queue — models the
// fixed pool of hybrid-function threads (cores × tpc).
class SlotPool {
 public:
  SlotPool(int capacity) : capacity_(capacity) {}

  void Acquire(std::function<void()> holder) {
    if (busy_ < capacity_) {
      ++busy_;
      holder();
    } else {
      waiters_.push_back(std::move(holder));
    }
  }

  void Release() {
    if (!waiters_.empty()) {
      std::function<void()> next = std::move(waiters_.front());
      waiters_.pop_front();
      next();  // Slot transfers directly.
    } else {
      --busy_;
    }
  }

 private:
  int capacity_;
  int busy_ = 0;
  std::deque<std::function<void()>> waiters_;
};

}  // namespace

SimMetrics SimulateDHybrid(const DHybridSimConfig& config,
                           const std::vector<SimRequest>& requests) {
  SimMetrics metrics;
  EventQueue queue;
  const int threads = std::max(1, config.cores * config.threads_per_core);

  // Two resources: a thread slot held for the whole request (compute AND
  // I/O wait — the hybrid function blocks in its sandbox), and the physical
  // CPU, which only the compute portions occupy. Oversubscription and
  // missing pinning inflate the CPU demand (context switches, cache churn).
  SlotPool slots(threads);
  FifoServer cpu(&queue, config.cores);
  double cpu_inflation = 1.0;
  if (!config.pinned) {
    cpu_inflation *= 1.0 + config.ctx_switch_penalty *
                               std::max(1, config.threads_per_core - 1);
  }

  struct Chain {
    SimRequest req;
    int phase = 0;
  };

  std::function<void(std::shared_ptr<Chain>)> run_phase;
  run_phase = [&](std::shared_ptr<Chain> chain) {
    if (chain->phase >= chain->req.phases) {
      RecordLatency(&metrics, chain->req.app_id, chain->req.arrival_us, queue.now());
      slots.Release();
      return;
    }
    ++chain->phase;
    auto compute_stage = [&, chain] {
      const auto service = static_cast<dbase::Micros>(
          static_cast<double>(chain->req.compute_us) * cpu_inflation);
      cpu.Submit(service, [&, chain](dbase::Micros, dbase::Micros) { run_phase(chain); });
    };
    if (chain->req.comm_us > 0) {
      // The hybrid function's own networking burns CPU, then the network
      // wait elapses off-CPU, then the compute part of the phase runs.
      const auto net_cpu = static_cast<dbase::Micros>(
          static_cast<double>(config.comm_cpu_us) * cpu_inflation);
      cpu.Submit(net_cpu, [&, chain, compute_stage](dbase::Micros, dbase::Micros) {
        queue.ScheduleAfter(chain->req.comm_us, compute_stage);
      });
    } else {
      compute_stage();
    }
  };

  for (const auto& req : requests) {
    queue.ScheduleAt(req.arrival_us, [&, req] {
      ++metrics.cold_starts;  // Hybrid functions also sandbox per request.
      slots.Acquire([&, req] {
        auto chain = std::make_shared<Chain>();
        chain->req = req;
        // Sandbox creation + dispatch burn CPU before the first phase.
        cpu.Submit(static_cast<dbase::Micros>(
                       static_cast<double>(config.sandbox_us + config.dispatch_us) *
                       cpu_inflation),
                   [&, chain](dbase::Micros, dbase::Micros) { run_phase(chain); });
      });
    });
  }

  queue.RunAll();
  return metrics;
}

// ------------------------------------------- Azure trace node models (§7.8)

namespace {

struct PendingRequest {
  dbase::Micros arrival_us = 0;
  dbase::Micros duration_us = 0;
  // True when no warm pod existed at arrival — the request experiences a
  // cold start (a pod boots on its critical path).
  bool cold = false;
};

// Per-function pod-pool state for the Knative model. The autoscaler is the
// shared KPA core from src/policy/ — the identical decision code behind the
// runtime's ConcurrencyTargetPolicy.
struct FunctionPool {
  int ready = 0;
  int booting = 0;
  int busy = 0;
  std::deque<PendingRequest> backlog;
  dpolicy::KpaAutoscaler autoscaler;
  uint64_t pod_bytes = 0;

  // Time integral of (busy + backlog) — the metric the KPA averages. Short
  // requests between autoscaler ticks are invisible to point sampling, so
  // the simulator integrates continuously like queue-proxy metrics do.
  double concurrency_integral = 0.0;
  dbase::Micros last_integral_update = 0;

  explicit FunctionPool(const dpolicy::KpaConfig& config) : autoscaler(config) {}
  int total_pods() const { return ready + booting; }

  void UpdateIntegral(dbase::Micros now) {
    concurrency_integral += static_cast<double>(busy + backlog.size()) *
                            static_cast<double>(now - last_integral_update);
    last_integral_update = now;
  }

  // Average concurrency since the last call; resets the window.
  double DrainWindowAverage(dbase::Micros now, dbase::Micros window_us) {
    UpdateIntegral(now);
    const double avg =
        window_us > 0 ? concurrency_integral / static_cast<double>(window_us) : 0.0;
    concurrency_integral = 0.0;
    return avg;
  }
};

}  // namespace

SimMetrics SimulateKnativeFirecrackerTrace(const TraceSimConfig& config,
                                           const dtrace::Trace& trace, uint64_t arrival_seed) {
  SimMetrics metrics;
  EventQueue queue;
  FifoServer cores(&queue, config.cores);

  dpolicy::KpaConfig as_config;
  as_config.max_replicas = config.max_pods_per_function;

  std::vector<FunctionPool> pools;
  pools.reserve(trace.functions.size());
  for (const auto& fn : trace.functions) {
    pools.emplace_back(as_config);
    pools.back().pod_bytes = fn.memory_bytes + config.guest_overhead_bytes;
  }

  uint64_t committed_bytes = 0;
  uint64_t active_bytes = 0;
  auto record_memory = [&] {
    metrics.committed_mb.Add(queue.now(), static_cast<double>(committed_bytes) / (1024.0 * 1024.0));
    metrics.active_mb.Add(queue.now(), static_cast<double>(active_bytes) / (1024.0 * 1024.0));
  };

  // Serves one queued/new request on a ready pod.
  std::function<void(int)> pump;
  std::function<void(int)> start_boot;

  auto serve = [&](int f, const PendingRequest& req) {
    FunctionPool& pool = pools[static_cast<size_t>(f)];
    pool.UpdateIntegral(queue.now());
    ++pool.busy;
    active_bytes += pool.pod_bytes;
    record_memory();
    if (req.cold) {
      ++metrics.cold_starts;
    } else {
      ++metrics.warm_starts;
    }
    const dbase::Micros service =
        req.duration_us + (req.cold ? config.pod_cold_paging_us : 0);
    cores.Submit(service, [&, f, req](dbase::Micros, dbase::Micros end) {
      FunctionPool& p = pools[static_cast<size_t>(f)];
      p.UpdateIntegral(queue.now());
      --p.busy;
      active_bytes -= p.pod_bytes;
      RecordLatency(&metrics, f, req.arrival_us, end);
      record_memory();
      pump(f);
    });
  };

  pump = [&](int f) {
    FunctionPool& pool = pools[static_cast<size_t>(f)];
    while (!pool.backlog.empty() && pool.ready > pool.busy) {
      PendingRequest req = pool.backlog.front();
      pool.backlog.pop_front();
      serve(f, req);
    }
    // Boot more pods if the backlog still exceeds capacity in flight.
    while (!pool.backlog.empty() &&
           pool.total_pods() < std::min(as_config.max_replicas,
                                        pool.busy + static_cast<int>(pool.backlog.size()))) {
      start_boot(f);
    }
  };

  start_boot = [&](int f) {
    FunctionPool& pool = pools[static_cast<size_t>(f)];
    ++pool.booting;
    committed_bytes += pool.pod_bytes;
    record_memory();
    queue.ScheduleAfter(config.pod_boot_us, [&, f] {
      FunctionPool& p = pools[static_cast<size_t>(f)];
      --p.booting;
      ++p.ready;
      pump(f);
    });
  };

  // Arrivals.
  for (const auto& arrival : trace.ToArrivals(arrival_seed)) {
    queue.ScheduleAt(arrival.time_us, [&, arrival] {
      const int f = arrival.function_id;
      FunctionPool& pool = pools[static_cast<size_t>(f)];
      pool.UpdateIntegral(queue.now());
      PendingRequest req{arrival.time_us, arrival.duration_us, /*cold=*/false};
      if (pool.ready > pool.busy) {
        serve(f, req);
      } else {
        // No warm pod free. Only count it a cold start when no pod exists
        // at all — queueing behind busy warm pods is a warm (if slow) hit.
        req.cold = pool.total_pods() == 0;
        pool.backlog.push_back(req);
        pump(f);
      }
    });
  }

  // Autoscaler ticks for the whole window.
  const dbase::Micros window_us =
      static_cast<dbase::Micros>(trace.duration_minutes) * 60 * dbase::kMicrosPerSecond;
  for (dbase::Micros t = config.autoscaler_tick_us; t <= window_us;
       t += config.autoscaler_tick_us) {
    queue.ScheduleAt(t, [&] {
      for (size_t f = 0; f < pools.size(); ++f) {
        FunctionPool& pool = pools[f];
        const double avg_concurrency =
            pool.DrainWindowAverage(queue.now(), config.autoscaler_tick_us);
        const int desired = pool.autoscaler.Tick(queue.now(), avg_concurrency);
        // Scale down: retire idle pods above the desired count.
        while (pool.total_pods() > desired && pool.ready > pool.busy) {
          --pool.ready;
          committed_bytes -= pool.pod_bytes;
        }
        // Scale up toward desired.
        while (pool.total_pods() < desired) {
          start_boot(static_cast<int>(f));
        }
      }
      record_memory();
    });
  }

  queue.RunAll();
  return metrics;
}

SimMetrics SimulateDandelionTrace(const TraceSimConfig& config, const dtrace::Trace& trace,
                                  uint64_t arrival_seed) {
  SimMetrics metrics;
  EventQueue queue;
  FifoServer cores(&queue, config.cores);

  uint64_t committed_bytes = 0;
  auto record_memory = [&] {
    metrics.committed_mb.Add(queue.now(), static_cast<double>(committed_bytes) / (1024.0 * 1024.0));
    metrics.active_mb.Add(queue.now(), static_cast<double>(committed_bytes) / (1024.0 * 1024.0));
  };

  std::vector<uint64_t> memory_of(trace.functions.size());
  for (size_t f = 0; f < trace.functions.size(); ++f) {
    memory_of[f] = trace.functions[f].memory_bytes;
  }

  for (const auto& arrival : trace.ToArrivals(arrival_seed)) {
    queue.ScheduleAt(arrival.time_us, [&, arrival] {
      // Context committed only while the request exists (§7.8: "Dandelion
      // commits and consumes memory only while requests are actively
      // running since a new context is created for each request").
      const uint64_t bytes = memory_of[static_cast<size_t>(arrival.function_id)];
      committed_bytes += bytes;
      record_memory();
      ++metrics.cold_starts;
      const dbase::Micros service = config.dandelion_sandbox_us + arrival.duration_us;
      cores.Submit(service, [&, arrival, bytes](dbase::Micros, dbase::Micros end) {
        committed_bytes -= bytes;
        RecordLatency(&metrics, arrival.function_id, arrival.time_us, end);
        record_memory();
      });
    });
  }

  queue.RunAll();
  return metrics;
}

}  // namespace dsim
