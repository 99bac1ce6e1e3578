#include "util/clock.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rapidware::util {

void SimClock::set(Micros t) {
  run_until(t);
  now_.store(t, std::memory_order_release);
}

SimClock::EventId SimClock::schedule_at(Micros at, Callback fn) {
  if (!fn) throw std::invalid_argument("SimClock: null callback");
  rw::MutexLock lk(mu_);
  const Micros t = std::max(at, now_.load(std::memory_order_relaxed));
  const std::uint64_t seq = next_seq_++;
  events_.emplace(Key{t, seq}, std::move(fn));
  return EventId{t, seq};
}

SimClock::EventId SimClock::schedule_after(Micros dt, Callback fn) {
  const Micros base = now();
  // Saturate instead of wrapping on absurd offsets.
  const Micros at = dt > std::numeric_limits<Micros>::max() - base ?
                        std::numeric_limits<Micros>::max()
                        : base + std::max<Micros>(dt, 0);
  return schedule_at(at, std::move(fn));
}

bool SimClock::cancel(const EventId& id) {
  rw::MutexLock lk(mu_);
  return events_.erase(Key{id.at, id.seq}) > 0;
}

SimClock::Callback SimClock::pop_due(Micros t) {
  rw::MutexLock lk(mu_);
  auto it = events_.begin();
  if (it == events_.end() || it->first.first > t) return nullptr;
  Callback fn = std::move(it->second);
  // Advance time to the event before running it, so the callback's now()
  // (and anything it schedules "after 0") lands at the event's instant.
  now_.store(it->first.first, std::memory_order_release);
  events_.erase(it);
  return fn;
}

std::size_t SimClock::run_until(Micros t) {
  std::size_t ran = 0;
  while (Callback fn = pop_due(t)) {
    fn();  // outside the lock: callbacks may schedule/cancel
    ++ran;
  }
  // The queue holds nothing due <= t; the interval is fully simulated.
  Micros cur = now_.load(std::memory_order_relaxed);
  while (cur < t &&
         !now_.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
  }
  return ran;
}

std::size_t SimClock::run_for(Micros dt) {
  if (dt < 0) throw std::invalid_argument("SimClock::run_for: dt < 0");
  return run_until(now() + dt);
}

bool SimClock::step() {
  Callback fn = pop_due(std::numeric_limits<Micros>::max());
  if (!fn) return false;
  fn();
  return true;
}

std::size_t SimClock::pending() const {
  rw::MutexLock lk(mu_);
  return events_.size();
}

Micros SimClock::next_event_at() const {
  rw::MutexLock lk(mu_);
  if (events_.empty()) return std::numeric_limits<Micros>::max();
  return events_.begin()->first.first;
}

// ---------------------------------------------------------------------------
// PeriodicTask

struct PeriodicTask::State {
  SimClock* clock;
  Micros period;
  Fn fn;
  mutable rw::Mutex mu{"util/periodic_task", rw::lockrank::kPeriodicTask};
  bool stopped RW_GUARDED_BY(mu) = false;
  SimClock::EventId current RW_GUARDED_BY(mu);
};

void PeriodicTask::fire(const std::shared_ptr<PeriodicTask::State>& st) {
  {
    rw::MutexLock lk(st->mu);
    if (st->stopped) return;
  }
  const Micros at = st->clock->now();
  st->fn(at);
  // Reschedule unless the callback stopped the task.
  rw::MutexLock lk(st->mu);
  if (st->stopped) return;
  st->current = st->clock->schedule_at(at + st->period, [st] { fire(st); });
}

void PeriodicTask::arm(const std::shared_ptr<PeriodicTask::State>& st,
                       Micros first) {
  rw::MutexLock lk(st->mu);
  st->current = st->clock->schedule_at(first, [st] { fire(st); });
}

PeriodicTask::PeriodicTask(SimClock& clock, Micros period, Fn fn)
    : PeriodicTask(clock, period, std::move(fn), clock.now() + period) {}

PeriodicTask::PeriodicTask(SimClock& clock, Micros period, Fn fn,
                           Micros first_at)
    : state_(std::make_shared<State>()) {
  if (period <= 0) {
    throw std::invalid_argument("PeriodicTask: period must be > 0");
  }
  if (!fn) throw std::invalid_argument("PeriodicTask: null callback");
  state_->clock = &clock;
  state_->period = period;
  state_->fn = std::move(fn);
  arm(state_, first_at);
}

void PeriodicTask::stop() {
  if (!state_) return;
  SimClock::EventId id;
  {
    rw::MutexLock lk(state_->mu);
    if (state_->stopped) return;
    state_->stopped = true;
    id = state_->current;
  }
  state_->clock->cancel(id);
}

bool PeriodicTask::stopped() const {
  rw::MutexLock lk(state_->mu);
  return state_->stopped;
}

}  // namespace rapidware::util
