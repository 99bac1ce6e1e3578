#include "raplets/receiver_report.h"

#include <cmath>

#include "util/serial.h"

namespace rapidware::raplets {

util::Bytes ReceiverReport::serialize() const {
  util::Writer w;
  w.str(receiver);
  w.u64(delivered);
  w.u64(expected);
  w.f64(window_loss);
  w.i64(at_us);
  w.f64(raw_loss);
  return w.take();
}

ReceiverReport ReceiverReport::parse(util::ByteSpan wire) {
  util::Reader r(wire);
  ReceiverReport report;
  report.receiver = r.str();
  report.delivered = r.u64();
  report.expected = r.u64();
  report.window_loss = r.f64();
  report.at_us = r.i64();
  report.raw_loss = r.f64();
  // A NaN would poison the sender's EWMA for good (every comparison with
  // it is false), so non-finite losses are rejected outright. A finite
  // negative raw_loss means "unknown".
  if (!std::isfinite(report.window_loss) || !std::isfinite(report.raw_loss)) {
    throw util::SerialError("ReceiverReport: non-finite loss");
  }
  if (report.window_loss < 0.0 || report.window_loss > 1.0 ||
      report.raw_loss > 1.0) {
    throw util::SerialError("ReceiverReport: loss out of range");
  }
  return report;
}

ReportSender::ReportSender(std::string receiver_name,
                           std::shared_ptr<net::SimSocket> socket,
                           net::Address observer,
                           std::size_t interval_packets)
    : name_(std::move(receiver_name)),
      socket_(std::move(socket)),
      observer_(observer),
      interval_(interval_packets) {
  if (interval_ == 0) {
    throw std::invalid_argument("ReportSender: interval must be positive");
  }
}

void ReportSender::on_delivered(std::uint32_t seq, util::Micros now) {
  if (!has_last_) {
    has_last_ = true;
    window_start_seq_ = seq;
    highest_seq_ = seq;
  }
  if (seq > highest_seq_) highest_seq_ = seq;
  ++window_delivered_;
  ++total_delivered_;

  // A window covers `interval_` consecutive sequence numbers, so losses
  // lengthen neither the window nor the reporting period.
  const std::uint64_t window_span = highest_seq_ - window_start_seq_ + 1;
  if (window_span < interval_) return;

  ReceiverReport report;
  report.receiver = name_;
  report.delivered = total_delivered_;
  report.expected = highest_seq_ + 1;
  report.window_loss =
      1.0 - static_cast<double>(window_delivered_) /
                static_cast<double>(window_span);
  if (report.window_loss < 0.0) report.window_loss = 0.0;
  report.at_us = now;
  if (raw_loss_provider_) {
    const double raw = raw_loss_provider_();
    report.raw_loss = raw > 1.0 ? 1.0 : raw;
  }
  socket_->send_to(observer_, report.serialize());
  ++reports_;

  window_start_seq_ = highest_seq_ + 1;
  window_delivered_ = 0;
}

}  // namespace rapidware::raplets
