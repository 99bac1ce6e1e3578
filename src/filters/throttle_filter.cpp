#include "filters/throttle_filter.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace rapidware::filters {

ThrottleFilter::ThrottleFilter(double bytes_per_sec, double burst_bytes)
    : PacketFilter("throttle"),
      rate_(bytes_per_sec),
      burst_(burst_bytes > 0 ? burst_bytes : bytes_per_sec / 2) {
  if (bytes_per_sec <= 0) {
    throw std::invalid_argument("ThrottleFilter: rate must be positive");
  }
}

std::string ThrottleFilter::describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "throttle(%.0fB/s)", rate_.load());
  return buf;
}

core::ParamMap ThrottleFilter::params() const {
  return {{"bytes_per_sec", std::to_string(rate_.load())}};
}

bool ThrottleFilter::set_param(const std::string& key,
                               const std::string& value) {
  if (key != "bytes_per_sec") return false;
  try {
    const double v = std::stod(value);
    if (v <= 0) return false;
    rate_.store(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

util::Micros ThrottleFilter::input_delay() {
  const double rate = rate_.load();
  const util::Micros now = loop_now();
  if (!primed_) {
    tokens_ = burst_;
    last_refill_ = now;
    primed_ = true;
  }
  // A restart on another worker reads another loop's clock: never credit
  // negative time.
  const util::Micros elapsed = std::max<util::Micros>(0, now - last_refill_);
  tokens_ =
      std::min(burst_, tokens_ + rate * static_cast<double>(elapsed) / 1e6);
  last_refill_ = now;
  if (tokens_ >= 0) return 0;
  return static_cast<util::Micros>(-tokens_ / rate * 1e6) + 1;
}

void ThrottleFilter::on_packet(util::Bytes packet) {
  tokens_ -= static_cast<double>(packet.size());
  emit(std::move(packet));
}

}  // namespace rapidware::filters
