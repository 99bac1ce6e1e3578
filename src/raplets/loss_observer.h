// Loss observer raplet: folds the ReceiverReports queued on a datagram
// socket into a smoothed loss per receiver.
//
// It has no thread: whoever owns the control cadence calls poll(), which
// drains the socket without blocking. Wrapped in a lambda, poll() is an
// AdaptiveFecController::LossProbe. One observer belongs to one caller, as
// one FecPolicy does; it takes no lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "raplets/receiver_report.h"

namespace rapidware::raplets {

class LossObserver {
 public:
  /// `socket` must be bound where receivers send their reports. `alpha` is
  /// the exponential smoothing weight of new samples.
  explicit LossObserver(std::shared_ptr<net::SimSocket> socket,
                        double alpha = 0.4);

  /// Drains every report queued on the socket, updating the sender's EWMA
  /// once per report (malformed reports are logged and skipped), and
  /// returns worst_loss().
  double poll();

  /// Smoothed loss for one receiver (0 if unheard from).
  double loss_for(const std::string& receiver) const;

  /// Highest smoothed loss across receivers — what a multicast FEC
  /// controller keys on (one parity stream must cover the worst receiver).
  double worst_loss() const;

  std::uint64_t reports_seen() const noexcept { return reports_; }

 private:
  const std::shared_ptr<net::SimSocket> socket_;
  const double alpha_;
  std::map<std::string, double> smoothed_;
  std::uint64_t reports_ = 0;
};

}  // namespace rapidware::raplets
