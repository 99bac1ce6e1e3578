// Annotated synchronization primitives: thin wrappers over std::mutex and
// std::condition_variable that carry Clang Thread Safety Analysis capability
// attributes (src/util/thread_annotations.h).
//
// Why wrap: the standard types carry no annotations, so the analyzer cannot
// connect a std::lock_guard to the fields it protects. rw::Mutex is a
// CAPABILITY, rw::MutexLock is a SCOPED_CAPABILITY, and rw::CondVar only
// offers predicate waits — which both prevents the classic naked-wait
// missed-wakeup bug and gives the analysis a single REQUIRES(mu) choke
// point. A Clang build with -DRW_THREAD_SAFETY=ON then proves, at compile
// time, that every RW_GUARDED_BY field is only touched under its lock.
//
// Deadlock freedom is the runtime side of the same contract: built with
// -DRW_DEADLOCK_CHECK=ON (debug/CI only), every mutex carries a name and a
// rank from src/util/lock_rank.h, and each acquisition runs through the
// checker in src/util/deadlock.h — a reentrant acquire, a rank inversion,
// or an acquisition-order cycle aborts immediately with both conflicting
// sites printed. When the option is off (the default, and all release
// builds) the hooks compile away entirely: lock/unlock forward straight to
// std::mutex, the name/rank constructor stores nothing, and CondVar adopts
// the caller's held lock for the duration of the wait. Overhead is zero.
#pragma once

#include <chrono>
#include <condition_variable>  // rw-lint: allow(RW001) the wrapper itself
#include <mutex>               // rw-lint: allow(RW001) the wrapper itself

#include "util/deadlock.h"
#include "util/thread_annotations.h"

#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
#include <source_location>
#define RW_DEADLOCK_SITE_PARAM \
  , const std::source_location& site = std::source_location::current()
#else
#define RW_DEADLOCK_SITE_PARAM
#endif

namespace rw {

class CondVar;

/// An annotated mutual-exclusion capability. Prefer rw::MutexLock over
/// manual lock()/unlock() pairs; the manual methods exist for the rare
/// split-scope protocol and are annotated so misuse still fails the build.
///
/// Long-lived mutexes in src/ are constructed with a name and a rank from
/// src/util/lock_rank.h ("subsystem/lock", lockrank::kSubsystem); the
/// default constructor makes an unnamed, unranked lock (tests, scratch).
class RW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
  Mutex(const char* name, int rank) : name_(name), rank_(rank) {}

  void lock(const std::source_location& site =
                std::source_location::current()) RW_ACQUIRE() {
    deadlock::pre_lock(this, name_, rank_, site);
    mu_.lock();
  }
  void unlock() RW_RELEASE() {
    deadlock::post_unlock(this);
    mu_.unlock();
  }
  bool try_lock(const std::source_location& site =
                    std::source_location::current()) RW_TRY_ACQUIRE(true) {
    // A try_lock cannot block, so it is exempt from the ordering checks;
    // it still lands on the held stack for reentrancy detection.
    if (!mu_.try_lock()) return false;
    deadlock::post_acquire(this, name_, rank_, site);
    return true;
  }
#else
  /// Name + rank are deadlock-checker inputs; without the checker they
  /// compile to nothing (no members, no stores).
  Mutex(const char*, int) {}

  void lock() RW_ACQUIRE() { mu_.lock(); }
  void unlock() RW_RELEASE() { mu_.unlock(); }
  bool try_lock() RW_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

  /// Analysis-only assertion that the calling context holds this mutex; a
  /// runtime no-op (std::mutex cannot verify ownership). Used at the top of
  /// condition-variable predicate lambdas, which Clang analyzes as separate
  /// functions that cannot see the caller's lock set.
  void assert_held() const RW_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;  // rw-lint: allow(RW001) the wrapper itself
#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
  const char* name_ = nullptr;
  int rank_ = -1;  // lockrank::kUnranked
#endif
};

/// RAII lock over rw::Mutex (the std::lock_guard replacement).
class RW_SCOPED_CAPABILITY MutexLock {
 public:
#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
  explicit MutexLock(Mutex& mu,
                     const std::source_location& site =
                         std::source_location::current()) RW_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
#else
  explicit MutexLock(Mutex& mu) RW_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
#endif
  ~MutexLock() RW_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to rw::Mutex. Only predicate waits: a naked
/// wait() invites lost wake-ups and defeats the analyzer, so it is not
/// offered (tools/rw_lint.py also rejects single-argument .wait( calls).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until pred() returns true. The caller must hold `mu`; the wait
  /// releases it while sleeping and reacquires it before returning (and
  /// before each pred() evaluation). Start the predicate with
  /// mu.assert_held() so the analysis knows the lock is held inside it.
  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred RW_DEADLOCK_SITE_PARAM) RW_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
    // The wait releases mu while sleeping; mirror that on the held stack
    // (the reacquire repeats an already-validated ordering, so it lands
    // back via the check-free post_acquire path).
    deadlock::post_unlock(&mu);
    cv_.wait(lk, std::move(pred));
    deadlock::post_acquire(&mu, mu.name_, mu.rank_, site);
#else
    cv_.wait(lk, std::move(pred));
#endif
    lk.release();  // ownership returns to the caller's scoped lock
  }

  /// Timed predicate wait; returns pred()'s value at wake-up (false on
  /// timeout with the predicate still unsatisfied).
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred RW_DEADLOCK_SITE_PARAM) RW_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK
    deadlock::post_unlock(&mu);
    const bool satisfied = cv_.wait_for(lk, timeout, std::move(pred));
    deadlock::post_acquire(&mu, mu.name_, mu.rank_, site);
#else
    const bool satisfied = cv_.wait_for(lk, timeout, std::move(pred));
#endif
    lk.release();
    return satisfied;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // rw-lint: allow(RW001) the wrapper itself
};

}  // namespace rw
