// FEC decision core: the pure state machine behind closed-loop FEC.
//
// Extracted so that the live-chain controller (fec_controller.h) and the
// 10,000-station fleet simulation (src/sim/fleet.h) run the *same* logic:
// what the scale sweep proves about hysteresis, cooldown, and the (n,k)
// ladder is exactly what the real reconfiguration path executes.
//
// The policy consumes raw per-interval loss samples, smooths them with an
// EWMA, and emits at most one action per update:
//   * loss rises to insert_threshold      -> Insert(n,k) from the ladder
//   * smoothed loss crosses a ladder rung -> Retune(n,k)
//   * loss falls to remove_threshold      -> Remove
// Hysteresis (insert > remove) plus a cooldown between actions keeps the
// controller from flapping on Gilbert-Elliott bursts, with an explicit
// strength ladder on top.
//
// Not thread-safe by design: one policy instance belongs to one control
// loop (the controller serializes calls under its own lock; the fleet sim
// is single-threaded per station). Determinism matters more than locking
// here — update() is a pure function of (state, now, sample).
#pragma once

#include <cstddef>
#include <vector>

#include "util/clock.h"

namespace rapidware::raplets {

/// One strength step: use FEC(n,k) once smoothed loss reaches min_loss.
struct FecRung {
  double min_loss = 0.0;
  std::size_t n = 6;
  std::size_t k = 4;
};

struct FecPolicyConfig {
  double insert_threshold = 0.01;   // smoothed loss to switch FEC on
  double remove_threshold = 0.002;  // smoothed loss to switch FEC off
  double alpha = 0.3;               // EWMA weight on the newest sample
  util::Micros cooldown_us = 2'000'000;  // min gap between actions
  /// Strength ladder, ascending by min_loss; the first rung's min_loss is
  /// ignored (insert_threshold governs when FEC turns on at all). Defaults
  /// follow the paper: FEC(6,4) at the onset, stronger codes as the station
  /// walks out of range.
  std::vector<FecRung> rungs = {
      {0.00, 6, 4},   // 50% overhead, recovers 2 losses per group
      {0.05, 4, 2},   // 100% overhead
      {0.15, 2, 1},   // full duplication for the edge of association
  };
};

class FecPolicy {
 public:
  enum class Action { kNone, kInsert, kRetune, kRemove };

  struct Decision {
    Action action = Action::kNone;
    std::size_t n = 0;      // target code for kInsert / kRetune
    std::size_t k = 0;
    double smoothed = 0.0;  // the loss estimate that drove the decision
  };

  explicit FecPolicy(FecPolicyConfig config = {});

  /// Feeds one loss sample (fraction of packets lost over the last control
  /// interval, in [0,1]) and returns the action to take. The caller is
  /// expected to actuate it; the policy assumes success.
  Decision update(util::Micros now, double loss_sample);

  bool active() const noexcept { return active_; }
  double smoothed() const noexcept { return smoothed_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t k() const noexcept { return k_; }
  const FecPolicyConfig& config() const noexcept { return config_; }

 private:
  const FecRung& rung_for(double loss) const;

  FecPolicyConfig config_;
  double smoothed_ = 0.0;
  bool primed_ = false;
  bool active_ = false;
  bool ever_acted_ = false;
  util::Micros last_action_ = 0;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
};

}  // namespace rapidware::raplets
