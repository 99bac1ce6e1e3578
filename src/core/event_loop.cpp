#include "core/event_loop.h"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rapidware::core {

void EventLoop::post(Task task) {
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  rw::MutexLock lk(mu_);
  queue_.push_back(std::move(task));
  if (waiters_ > 0) cv_.notify_one();
}

void EventLoop::run() {
  thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  // This thread's buffer arena for the loop's whole lifetime: every
  // data-plane BufferPool::local() on this thread now resolves to pool_,
  // taking zero global-pool locks on the steady-state path.
  util::BufferPool* prev_pool = util::BufferPool::install_local(&pool_);
  const auto epoch = std::chrono::steady_clock::now();
  auto window_start = epoch;  // busy-fraction EWMA measurement window
  std::deque<Task> batch;
  for (;;) {
    batch.clear();
    {
      rw::MutexLock lk(mu_);
      if (queue_.empty()) {
        if (stop_) {
          exited_ = true;  // from here on sync() refuses instead of hanging
          break;
        }
        // Idle: park until the next post or the next due timer. The wait
        // is bounded by the timer horizon so slaved virtual time cannot
        // fall behind a due PeriodicTask by more than the overshoot of
        // one wakeup.
        const util::Micros next = clock_.next_event_at();
        std::chrono::microseconds timeout(std::chrono::hours(1));
        if (next != std::numeric_limits<util::Micros>::max()) {
          const auto wall_next = epoch + std::chrono::microseconds(next);
          const auto now = std::chrono::steady_clock::now();
          timeout = std::chrono::duration_cast<std::chrono::microseconds>(
              wall_next > now ? wall_next - now
                              : std::chrono::steady_clock::duration::zero());
        }
        ++waiters_;
        cv_.wait_for(mu_, timeout, [this] {  // rw-lint: allow(RW008) the loop's own idle parking, nothing queued behind it
          mu_.assert_held();
          return !queue_.empty() || stop_;
        });
        --waiters_;
      }
      batch.swap(queue_);
    }
    // Count each task as it completes (not the batch at once): a sync()
    // barrier returns mid-batch, and tasks_run() must already cover every
    // task ordered before it. queue_depth_ mirrors that: a task counts as
    // load until it has retired, so mid-batch snapshots see the backlog.
    const auto batch_start = std::chrono::steady_clock::now();
    for (Task& task : batch) {
      task();
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Advance slaved virtual time to the elapsed wall time, firing due
    // timers (idle-flow eviction sweeps and the like) on this thread.
    const auto now = std::chrono::steady_clock::now();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(now - epoch);
    clock_.run_until(static_cast<util::Micros>(elapsed.count()));
    // Fold this iteration into the busy-fraction EWMA (alpha 1/8): busy =
    // time spent executing the batch, window = everything since the last
    // update including the idle park, so an idle loop decays toward 0.
    const double window =
        std::chrono::duration<double>(now - window_start).count();
    if (window > 0.0) {
      const double busy =
          std::chrono::duration<double>(now - batch_start).count();
      const double sample = busy >= window ? 1.0 : busy / window;
      const double old =
          static_cast<double>(busy_ppm_.load(std::memory_order_relaxed)) /
          1e6;
      const double next = old + (sample - old) / 8.0;
      busy_ppm_.store(static_cast<std::uint32_t>(next * 1e6),
                      std::memory_order_relaxed);
      window_start = now;
    }
  }
  util::BufferPool::install_local(prev_pool);
  thread_id_.store(std::thread::id{}, std::memory_order_release);
}

void EventLoop::wake() {
  // An empty task, not a bare notify: the idle wait's predicate only
  // breaks on queue activity or stop, and a task bounces the loop through
  // a fresh horizon computation.
  post([] {});
}

void EventLoop::stop() {
  rw::MutexLock lk(mu_);
  stop_ = true;
  cv_.notify_all();
}

void EventLoop::sync() {
  if (on_loop_thread()) return;  // inside a task: already ordered
  struct Barrier {
    rw::Mutex mu;  // unranked leaf: nothing is ever acquired under it
    rw::CondVar cv;
    bool hit RW_GUARDED_BY(mu) = false;
  } barrier;
  Task hit = [&barrier] {
    rw::MutexLock lk(barrier.mu);
    barrier.hit = true;
    barrier.cv.notify_all();
  };
  {
    // Check and queue under one hold of mu_: the barrier is either queued
    // before run() decides to return (so it runs) or refused here.
    rw::MutexLock lk(mu_);
    if (exited_) {
      throw std::logic_error(
          "EventLoop::sync: run() has returned, so nothing would run the "
          "barrier (sync before stopping the loop)");
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(std::move(hit));
    if (waiters_ > 0) cv_.notify_one();
  }
  rw::MutexLock lk(barrier.mu);
  barrier.cv.wait(barrier.mu, [&barrier] {  // rw-lint: allow(RW008) control-plane barrier, never called from a worker (guarded above)
    barrier.mu.assert_held();
    return barrier.hit;
  });
}

}  // namespace rapidware::core
