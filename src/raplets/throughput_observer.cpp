#include "raplets/throughput_observer.h"

#include <stdexcept>

namespace rapidware::raplets {

ThroughputObserver::ThroughputObserver(ByteCounter counter,
                                       const util::Clock& clock, double alpha)
    : counter_(std::move(counter)), clock_(clock), alpha_(alpha) {
  if (!counter_) {
    throw std::invalid_argument("ThroughputObserver: null counter");
  }
  if (alpha_ <= 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument("ThroughputObserver: alpha in (0, 1]");
  }
  last_bytes_ = counter_();
  last_at_ = clock_.now();
}

double ThroughputObserver::poll() {
  const std::uint64_t bytes = counter_();
  const util::Micros now = clock_.now();
  if (now <= last_at_) return smoothed_;  // virtual clock not advanced
  const double sample = static_cast<double>(bytes - last_bytes_) * 1e6 /
                        static_cast<double>(now - last_at_);
  last_bytes_ = bytes;
  last_at_ = now;
  smoothed_ = primed_ ? alpha_ * sample + (1.0 - alpha_) * smoothed_ : sample;
  primed_ = true;
  return smoothed_;
}

}  // namespace rapidware::raplets
