// Clock abstraction: simulated components take a Clock& so that tests and
// benchmarks can run on virtual time while live examples use the wall clock.
//
// SimClock is the repo's one virtual clock: a time counter plus an ordered
// event queue. Open-loop code drives it by hand (advance/set); closed-loop
// code schedules callbacks on it and lets them run at the right instants
// (a controller polling STATS every virtual second, a worker's idle sweep,
// the fleet's per-tick update). Every EventLoop owns one slaved to wall
// time; tests and the fleet simulation drive theirs directly.
//
// Determinism contract (docs/simulation.md):
//   * Events fire in (time, seq) order, where seq is a monotonic counter
//     assigned at schedule time. Two events scheduled for the same instant
//     therefore fire in the order they were scheduled — ties never depend
//     on heap layout, hashing, or thread timing.
//   * With a single driving thread (the normal arrangement: everything
//     downstream of run_until() happens on the caller), the same schedule
//     of callbacks produces the same interleaving every run. That is what
//     lets a 10,000-station sweep assert byte-identical STATS dumps.
//   * Scheduling is thread-safe (a worker may post an event while the
//     driver runs), but cross-thread schedules race the driver by nature;
//     deterministic tests schedule only from the driving thread (usually
//     from inside callbacks).
//
// No wall-clock calls in the event queue, ever: rw_lint RW007 bans
// steady_clock::now() and sleep_for in clock.cpp so virtual hours stay
// wall-clock-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::util {

/// Monotonic time in microseconds since an arbitrary epoch.
using Micros = std::int64_t;

constexpr Micros kMicrosPerSecond = 1'000'000;

class Clock {
 public:
  virtual ~Clock() = default;
  virtual Micros now() const = 0;
};

/// Real time, monotonic.
class WallClock final : public Clock {
 public:
  Micros now() const override {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::microseconds>(t).count();
  }
};

/// Discrete-event virtual clock; thread-safe. Callbacks are scheduled at
/// absolute virtual times and executed, in order, by whichever thread moves
/// time (advance/set/run_until/run_for/step); time never moves past an
/// unexecuted due event.
class SimClock final : public Clock {
 public:
  using Callback = std::function<void()>;

  /// Handle for cancellation. The (at, seq) pair is the event's identity in
  /// the queue; seq alone is globally unique.
  struct EventId {
    Micros at = 0;
    std::uint64_t seq = 0;
  };

  SimClock() = default;
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  /// Current virtual time. Starts at 0.
  Micros now() const override { return now_.load(std::memory_order_acquire); }

  /// run_until(now() + dt): runs the events that fall due within dt.
  void advance(Micros dt) { run_until(now() + dt); }

  /// Runs the events due at or before `t`, then sets now() to `t`. Unlike
  /// run_until, `t` may lie in the past: a set() backwards runs nothing and
  /// moves now() back.
  void set(Micros t);

  /// Schedules `fn` at absolute virtual time `at` (clamped to now(): the
  /// past is immutable, so a stale timestamp fires at the current instant).
  EventId schedule_at(Micros at, Callback fn);

  /// Schedules `fn` `dt` microseconds from now (dt < 0 clamps to now).
  EventId schedule_after(Micros dt, Callback fn);

  /// Cancels a pending event. Returns false when the event already fired,
  /// was cancelled before, or is executing right now (cancellation never
  /// interrupts a running callback).
  bool cancel(const EventId& id);

  /// Runs every event due at or before `t` (in (time, seq) order), then
  /// advances now() to `t`. Callbacks run on the calling thread with no
  /// internal lock held, so they may schedule and cancel freely. Events a
  /// callback schedules within [now, t] are executed in the same call.
  /// Returns the number of callbacks executed.
  std::size_t run_until(Micros t);

  /// run_until(now() + dt); dt must be >= 0.
  std::size_t run_for(Micros dt);

  /// Runs the single earliest pending event, advancing now() to its time.
  /// Returns false (and leaves time untouched) when the queue is empty.
  bool step();

  /// Number of events waiting in the queue.
  std::size_t pending() const;

  /// Virtual time of the earliest pending event, or Micros max when the
  /// queue is empty.
  Micros next_event_at() const;

 private:
  using Key = std::pair<Micros, std::uint64_t>;  // (time, seq)

  /// Pops the earliest event due at or before `t` and advances now() to its
  /// time; returns nullptr when none is due.
  Callback pop_due(Micros t);

  mutable rw::Mutex mu_{"util/sim_clock", rw::lockrank::kSimClock};
  std::map<Key, Callback> events_ RW_GUARDED_BY(mu_);
  std::uint64_t next_seq_ RW_GUARDED_BY(mu_) = 0;
  std::atomic<Micros> now_{0};
};

/// Self-rescheduling periodic event: calls fn(now) every `period` starting
/// at `first_at` (default: one period from now). stop() is safe from inside
/// the callback. The task stops automatically when destroyed.
class PeriodicTask {
 public:
  using Fn = std::function<void(Micros now)>;

  PeriodicTask(SimClock& clock, Micros period, Fn fn);
  PeriodicTask(SimClock& clock, Micros period, Fn fn, Micros first_at);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool stopped() const;

 private:
  struct State;
  static void fire(const std::shared_ptr<State>& st);
  static void arm(const std::shared_ptr<State>& st, Micros first);
  std::shared_ptr<State> state_;
};

/// Converts seconds (double) to Micros, rounding to nearest.
constexpr Micros seconds_to_micros(double s) {
  return static_cast<Micros>(s * 1e6 + (s >= 0 ? 0.5 : -0.5));
}

constexpr double micros_to_seconds(Micros us) {
  return static_cast<double>(us) / 1e6;
}

}  // namespace rapidware::util
