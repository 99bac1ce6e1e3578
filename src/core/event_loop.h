// Per-worker run-to-completion event loop (docs/data_plane.md, "Worker
// model").
//
// One EventLoop multiplexes thousands of filter chains on a single OS
// thread: instead of parking one blocking thread per filter on the stream
// condvars, a filter registers a core::Scheduler on its streams and is
// POSTED here whenever an armed poll would now make progress. Tasks run to completion, in order, on the loop thread — so two
// filters of the same chain never race, which is what makes chain-affinity
// pinning (whole FilterChain on one worker) free of intra-chain
// synchronization beyond the stream rings themselves.
//
// Each loop also owns a util::SimClock slaved to wall time: between
// task batches the loop advances the clock to the elapsed wall
// microseconds since run() began, firing due util::PeriodicTask timers on
// the loop thread (the idle-flow eviction sweeps ride on this). When the
// queue is empty the loop sleeps until the next due timer or the next
// post, whichever comes first.
//
// Blocking discipline: everything executed here — tasks, timer callbacks,
// Filter::on_ready() drives — must never block (rw_lint RW008 covers this
// file). The two condition waits below are the loop's own idle parking and
// the control-plane sync() barrier; both carry reasoned waivers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>

#include "util/buffer_pool.h"
#include "util/clock.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

class EventLoop {
 public:
  using Task = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues a task for the loop thread. Thread-safe; callable from loop
  /// tasks themselves (self-posts run in a later batch, which is how
  /// Drive::kMore yields between chains for fairness). Posting to a
  /// stopped loop is allowed until run() returns — the task still runs,
  /// because run() drains the queue before exiting.
  void post(Task task);

  /// Runs tasks and timers on the calling thread until stop() AND an empty
  /// queue. The hosting WorkerPool calls this from its worker threads.
  void run();

  /// Asks run() to return once the queue drains. Thread-safe, idempotent.
  void stop();

  /// True when the caller IS the loop thread (inside a task or timer).
  bool on_loop_thread() const {
    return thread_id_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// The loop's wall-slaved virtual clock. schedule_at/PeriodicTask on it
  /// fire on the loop thread; safe to call from any thread.
  util::SimClock& clock() noexcept { return clock_; }

  /// Nudges a parked loop to recompute its timer horizon. Call after
  /// scheduling on clock() from another thread: the idle wait is bounded
  /// by the horizon read BEFORE parking, so without a wake an earlier-due
  /// timer would wait out the previous bound.
  void wake();

  /// Control-plane barrier: returns after every task posted before this
  /// call has executed (and, transitively, after any in-flight timer
  /// callback finished — timers run between batches). A no-op when called
  /// from the loop thread itself, where waiting would self-deadlock.
  /// Throws std::logic_error once run() has returned: nothing would ever
  /// run the barrier, so waiting would hang.
  void sync();

  /// Tasks executed so far (drives + posts; timer callbacks not counted).
  std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// The loop's worker-local buffer arena (rebalances against
  /// util::default_pool()). run() installs it as the thread's
  /// util::BufferPool::local() for its whole lifetime, so every
  /// data-plane acquire/release on the loop thread is worker-local —
  /// the shared-nothing half of the scaling story (docs/data_plane.md).
  util::BufferPool& pool() noexcept { return pool_; }

  /// Tasks posted but not yet retired (queued + currently executing).
  /// A relaxed load — placement reads it as a freshness-tolerant signal.
  std::size_t queue_depth() const noexcept {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Smoothed fraction of wall time this loop spent executing tasks and
  /// timers (EWMA, alpha 1/8, updated once per batch; decays while idle).
  double busy_fraction() const noexcept {
    return static_cast<double>(busy_ppm_.load(std::memory_order_relaxed)) /
           1e6;
  }

  /// The load-aware placement signal: backlog plus smoothed busyness.
  /// Dimensionally loose by design — queue depth dominates once a worker
  /// falls behind, busy fraction breaks ties between keeping-up workers.
  double load() const noexcept {
    return static_cast<double>(queue_depth()) + busy_fraction();
  }

 private:
  mutable rw::Mutex mu_{"core/event_loop", rw::lockrank::kEventLoop};
  rw::CondVar cv_;
  std::deque<Task> queue_ RW_GUARDED_BY(mu_);
  bool stop_ RW_GUARDED_BY(mu_) = false;
  bool exited_ RW_GUARDED_BY(mu_) = false;  // run() decided to return
  int waiters_ RW_GUARDED_BY(mu_) = 0;  // the loop thread parked idle

  util::SimClock clock_;  // rw-lint: allow(RW003) internally synchronized
  util::BufferPool pool_{  // rw-lint: allow(RW003) internally synchronized
      util::BufferPool::Config{}, &util::default_pool()};
  std::atomic<std::thread::id> thread_id_{};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::uint32_t> busy_ppm_{0};  // busy fraction EWMA, ppm
};

}  // namespace rapidware::core
