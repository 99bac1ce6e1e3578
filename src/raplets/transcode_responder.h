// Transcode responder raplet: matches a stream to a constrained client.
//
// Fed the stream's demand (typically ThroughputObserver::poll()) by whoever
// owns the cadence, it escalates through a transcoding ladder until the
// stream fits the client's link budget:
//
//     off  ->  mono (2x smaller)  ->  mono+half (4x smaller)
//
// and de-escalates with hysteresis when demand drops. This is the paper's
// "transcode the stream to a lower bandwidth format" proxy duty, run by a
// responder instead of a human — the heterogeneity counterpart to the FEC
// controller's loss adaptation. It keeps its own ladder rather than a
// FecPolicy because it follows a bandwidth law, not a loss law.
#pragma once

#include <string>
#include <vector>

#include "core/control.h"
#include "util/clock.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::raplets {

struct TranscodeResponderConfig {
  /// The client's sustainable link budget in bytes/second.
  double link_budget_bps = 8'000;
  /// Keep this fraction of budget as headroom before de-escalating.
  double hysteresis = 0.85;
  util::Micros cooldown_us = 1'000'000;
  std::size_t position = 0;  // chain slot for the transcode filter
  /// Input audio format parameters passed to the filter.
  std::string rate = "8000";
  std::string channels = "2";
  std::string bits = "8";
};

/// The transcode ladder: the smallest reduction — 1 (off), 2 (mono) or 4
/// (mono+half) — that fits `stream_bps` into `budget_bps`, or 4 when even
/// that does not fit.
int reduction_for(double stream_bps, double budget_bps);

class TranscodeResponder {
 public:
  TranscodeResponder(core::ControlManager manager,
                     TranscodeResponderConfig config = {});

  /// Reacts to the stream's demand (bytes/second) observed at `now`:
  /// escalates at once when the stream overruns the budget, de-escalates
  /// only with headroom, and never changes twice within the cooldown.
  void update(util::Micros now, double demand_bps);

  /// Current reduction factor: 1 (off), 2 (mono), or 4 (mono+half).
  int current_reduction() const;

  struct Action {
    util::Micros at;
    int reduction;  // new reduction factor
    double demand_bps;
  };
  std::vector<Action> history() const;

 private:
  void apply(int reduction, util::Micros now, double demand_bps)
      RW_REQUIRES(mu_);

  core::ControlManager manager_ RW_GUARDED_BY(mu_);
  const TranscodeResponderConfig config_;

  mutable rw::Mutex mu_{"raplets/transcode_responder", rw::lockrank::kRapletResponder};
  int reduction_ RW_GUARDED_BY(mu_) = 1;
  bool ever_changed_ RW_GUARDED_BY(mu_) = false;
  util::Micros last_change_ RW_GUARDED_BY(mu_) = 0;
  std::vector<Action> history_ RW_GUARDED_BY(mu_);
};

}  // namespace rapidware::raplets
