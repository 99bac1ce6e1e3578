// Deterministic fault injection for the stream, filter, and link layers.
//
// The paper's central guarantee — a DIS/DOS pair can be paused,
// disconnected, reconnected, and restarted on a live stream without losing,
// duplicating, or reordering a byte — only means something if it holds on
// hostile schedules: threads descheduled at the worst moment, peers that
// throw mid-transfer, and links that drop or reorder packets. FaultInjector
// is the single seeded policy object that decides when each of those faults
// fires. LinkFaults applies it to the channel layer (net::LossModel); the
// chain stress harness's packet source, sink and stages
// (testing/sequence_stream.h, testing/stress.cpp) consult it for delays and
// throws on the endpoints' and stages' worker.
//
// Everything is driven by util::Rng from one seed: a failing schedule is
// replayed exactly by re-running with the same seed. Wall-clock sleeps are
// bounded and tiny (they exist to perturb thread interleavings, not to
// model time), and the injector keeps no clock of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/loss.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace rapidware::testing {

/// Tunable fault probabilities, all in [0, 1]. The defaults describe a
/// "mean but survivable" environment: plenty of scheduling noise, no
/// thrown errors (those are opt-in because they legitimately truncate a
/// stream).
struct FaultPlan {
  /// P(a yield/sleep is inserted before an I/O call or control op), to
  /// perturb the thread schedule ("delayed wakeup").
  double delay_p = 0.25;
  /// Upper bound for an injected sleep, in microseconds. Most delays are
  /// plain yields; sleeps model a thread that loses the CPU for a while.
  std::int64_t max_delay_us = 200;
  /// When true, a drawn sleep really blocks the thread (wall clock) — the
  /// TSan smoke subset's mode, where genuine preemption windows matter.
  /// Default: the duration is still drawn, but the thread just yields.
  /// Either way the Rng draw sequence is identical, so a pinned schedule
  /// seed replays the same fault decisions in both modes; only wall time
  /// differs.
  bool wall_delays = false;
  /// P(an I/O call throws core::StreamError / core::BrokenPipe instead of
  /// completing). Off by default: a throwing source/sink truncates the
  /// stream by contract, so loss-free assertions must not arm this.
  double throw_p = 0.0;
  /// P(LinkFaults forces a packet drop) on top of the wrapped model.
  double link_drop_p = 0.0;
  /// P(LinkFaults starts a link-down window) per packet, and its length.
  double link_outage_p = 0.0;
  int link_outage_packets = 8;
};

/// Seeded fault policy shared by any number of wrappers. Thread-safe: each
/// decision takes one mutex-protected draw from the Rng, which also
/// serializes decisions into one reproducible order per seed. Counters
/// record what actually fired so tests can assert the schedule was hostile.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, FaultPlan plan = {});

  const FaultPlan& plan() const noexcept { return plan_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// One Bernoulli draw with probability p.
  bool roll(double p);

  /// Maybe yield or sleep (plan.delay_p / plan.max_delay_us).
  void maybe_delay();

  /// One plan.throw_p draw: true (and counted in throws()) when the caller
  /// should fail the I/O call it is about to make.
  bool inject_throw();

  // Fired-fault counters.
  std::uint64_t delays() const noexcept { return delays_.load(); }
  std::uint64_t throws() const noexcept { return throws_.load(); }
  std::uint64_t link_drops() const noexcept { return link_drops_.load(); }

 private:
  friend class LinkFaults;

  rw::Mutex mu_{"testing/fault_injector", rw::lockrank::kFaultInjector};
  util::Rng rng_ RW_GUARDED_BY(mu_);
  const FaultPlan plan_;
  const std::uint64_t seed_;

  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> throws_{0};
  std::atomic<std::uint64_t> link_drops_{0};
};

/// Wraps a net::LossModel for use in a net::ChannelConfig: adds forced
/// drops and link-down windows (every packet in the window is lost) on top
/// of whatever the wrapped model decides. Mid-transfer link loss for
/// SimNetwork-based tests; reordering comes from the channel's own jitter.
class LinkFaults final : public net::LossModel {
 public:
  LinkFaults(std::shared_ptr<net::LossModel> inner,
             std::shared_ptr<FaultInjector> faults);

  bool drop(util::Rng& rng) override;
  double average_loss() const override;
  void set_average_loss(double p) override;

  /// Manually opens/closes a link-down window (handoff simulation).
  void set_down(bool down);

 private:
  const std::shared_ptr<net::LossModel> inner_;
  const std::shared_ptr<FaultInjector> faults_;
  rw::Mutex mu_{"testing/link_faults", rw::lockrank::kLinkFaults};
  bool down_ RW_GUARDED_BY(mu_) = false;
  int outage_left_ RW_GUARDED_BY(mu_) = 0;
};

}  // namespace rapidware::testing
