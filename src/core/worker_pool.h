// N core::EventLoop workers on N OS threads (docs/data_plane.md, "Worker
// model") — the only threads the data plane runs on. Chains are pinned
// whole to one worker (least-loaded placement via next(), or sharded
// placement in proxy::FlowTable), so where the paper gives every filter a
// thread, chains*filters logical flows multiplex onto N threads here; the
// paper's arrangement is simply WorkerPool(1) per chain.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/event_loop.h"
#include "obs/metrics.h"

namespace rapidware::core {

class WorkerPool {
 public:
  /// workers == 0 picks RW_WORKERS from the environment, else the hardware
  /// core count (at least 1).
  explicit WorkerPool(std::size_t workers = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const noexcept { return loops_.size(); }

  EventLoop& worker(std::size_t i) { return *loops_[i]; }

  /// Least-loaded placement for the next hosted chain: scans every
  /// worker's EventLoop::load() (queue depth + busy-fraction EWMA, all
  /// relaxed atomics — no lock, no shared counter mutation) and returns
  /// the lightest, lowest index winning ties. The chain then pins to that
  /// worker for its lifetime (chain affinity), so placement is a
  /// once-per-chain decision and a slightly stale load reading only costs
  /// one suboptimal placement, never correctness. Throws std::logic_error
  /// after stop() — a stopped loop never drives again, so handing it out
  /// would hang the caller's chain.
  EventLoop& next();

  /// Stop-safe variant of next(): nullptr once stop() has begun, so a
  /// hosting decision racing teardown can notice instead of pinning work
  /// on a dead loop.
  EventLoop* try_next();

  /// Publishes per-worker load metrics under `prefix`:
  /// worker/<i>/tasks_run, worker/<i>/queue_depth, worker/<i>/busy (all
  /// callback gauges over the loops' relaxed atomics — snapshots never
  /// touch a pool or loop mutex). Dropped by stop(). Call at most once.
  void bind_metrics(obs::Registry& reg, const std::string& prefix);

  /// Stops every loop and joins the worker threads. Idempotent. Chains
  /// hosted on the pool must be shut down FIRST: a stopped loop never
  /// drives again, so a filter still waiting on readiness would leave its
  /// join()/destructor waiting forever.
  void stop();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopped_{false};
  std::optional<obs::Scope> scope_;  // rw-lint: allow(RW003) set before threads observe it, dropped in stop()
};

/// Process-wide pool hosting every chain started without an explicit loop
/// (FilterChain::start without host_on). Constructed on first use
/// (publishing its worker/<i>/ load gauges on obs::registry() under
/// "workers"), stopped at static destruction.
WorkerPool& default_worker_pool();

}  // namespace rapidware::core
