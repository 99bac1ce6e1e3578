// Pass-through measurement tap: counts packets/bytes and exposes a rate,
// usable anywhere in a chain without altering the stream. Observer raplets
// read taps like this one to detect condition changes.
#pragma once

#include <atomic>

#include "core/filter.h"
#include "util/clock.h"

namespace rapidware::filters {

class StatsFilter final : public core::PacketFilter {
 public:
  explicit StatsFilter(std::string name = "stats");

  std::string describe() const override;
  core::ParamMap params() const override;

  std::uint64_t packets() const noexcept { return packets_in(); }
  std::uint64_t bytes() const noexcept { return bytes_.load(); }

  /// Average throughput since the first packet, bytes/second.
  double throughput_bps() const;

  /// Adds "tap_bytes" and "throughput_bps" to the base metrics.
  void register_metrics(obs::Scope scope) override {
    PacketFilter::register_metrics(scope);
    scope.callback("tap_bytes",
                   [this] { return static_cast<double>(bytes()); });
    scope.callback("throughput_bps", [this] { return throughput_bps(); });
  }

 protected:
  void on_packet(util::Bytes packet) override;

 private:
  util::WallClock clock_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<util::Micros> first_at_{-1};
  std::atomic<util::Micros> last_at_{-1};
};

}  // namespace rapidware::filters
