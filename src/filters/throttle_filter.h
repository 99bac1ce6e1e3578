// Token-bucket rate limiter filter: caps the byte rate a chain forwards
// toward a slow link (bandwidth conservation for handheld clients).
#pragma once

#include <atomic>

#include "core/filter.h"

namespace rapidware::filters {

/// Paces without blocking its worker: a packet spends its bytes on arrival
/// (the bucket may go into debt by one packet), and the next input read is
/// deferred — a one-shot timer on the hosting loop's clock — until the
/// debt is repaid.
class ThrottleFilter final : public core::PacketFilter {
 public:
  /// `bytes_per_sec` > 0; `burst_bytes` is the bucket depth (defaults to
  /// half a second of credit).
  explicit ThrottleFilter(double bytes_per_sec, double burst_bytes = 0);

  std::string describe() const override;
  core::ParamMap params() const override;
  bool set_param(const std::string& key, const std::string& value) override;

 protected:
  util::Micros input_delay() override;
  void on_packet(util::Bytes packet) override;

 private:
  std::atomic<double> rate_;
  double burst_;
  double tokens_ = 0;
  util::Micros last_refill_ = 0;
  bool primed_ = false;
};

}  // namespace rapidware::filters
