#include "filters/stats_filter.h"

#include <cstdio>

namespace rapidware::filters {

StatsFilter::StatsFilter(std::string name) : PacketFilter(std::move(name)) {}

std::string StatsFilter::describe() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s(pkts=%llu, bytes=%llu)", name().c_str(),
                static_cast<unsigned long long>(packets()),
                static_cast<unsigned long long>(bytes_.load()));
  return buf;
}

core::ParamMap StatsFilter::params() const {
  return {{"packets", std::to_string(packets())},
          {"bytes", std::to_string(bytes_.load())},
          {"throughput_bps", std::to_string(throughput_bps())}};
}

double StatsFilter::throughput_bps() const {
  const util::Micros first = first_at_.load();
  const util::Micros last = last_at_.load();
  if (first < 0 || last <= first) return 0.0;
  return static_cast<double>(bytes_.load()) * 1e6 /
         static_cast<double>(last - first);
}

void StatsFilter::on_packet(util::Bytes packet) {
  const util::Micros now = clock_.now();
  util::Micros expected = -1;
  first_at_.compare_exchange_strong(expected, now);
  last_at_.store(now);
  bytes_.fetch_add(packet.size());
  emit(std::move(packet));
}

}  // namespace rapidware::filters
