// Throughput observer raplet: samples a byte counter (typically a
// StatsFilter tap at a proxy's ingress) and smooths its rate — the demand
// side of the bandwidth-adaptation loop (the paper's "disparities among
// collaborating devices").
//
// It has no thread: whoever owns the cadence calls poll(), typically right
// before feeding the result to TranscodeResponder::update(). Rates come from
// the clock the caller passes, so a virtual-time loop or a deterministic
// test gets exact arithmetic, not scheduling noise. One observer belongs to
// one caller; it takes no lock.
#pragma once

#include <cstdint>
#include <functional>

#include "util/clock.h"

namespace rapidware::raplets {

class ThroughputObserver {
 public:
  using ByteCounter = std::function<std::uint64_t()>;

  /// `counter` returns a monotonically increasing byte total; the observer
  /// differentiates it per sample and smooths the rate with an EWMA
  /// (`alpha` weight on the new sample, damping scheduling burstiness). The
  /// baseline (counter value, clock reading) is taken here, at construction.
  /// `clock` must outlive the observer.
  ThroughputObserver(ByteCounter counter, const util::Clock& clock,
                     double alpha = 0.4);

  /// Takes one sample at clock.now(): differentiates the counter since the
  /// previous sample, updates the EWMA and returns it, in bytes/second.
  /// While the clock stands still it takes no sample and returns the
  /// previous estimate.
  double poll();

 private:
  const ByteCounter counter_;
  const util::Clock& clock_;
  const double alpha_;
  std::uint64_t last_bytes_ = 0;
  util::Micros last_at_ = 0;
  double smoothed_ = 0.0;
  bool primed_ = false;
};

}  // namespace rapidware::raplets
