#include "raplets/loss_observer.h"

#include <algorithm>
#include <stdexcept>

#include "util/logging.h"

namespace rapidware::raplets {

LossObserver::LossObserver(std::shared_ptr<net::SimSocket> socket,
                           double alpha)
    : socket_(std::move(socket)), alpha_(alpha) {
  if (alpha_ <= 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument("LossObserver: alpha in (0, 1]");
  }
}

double LossObserver::poll() {
  bool closed = false;
  while (auto datagram = socket_->poll_recv(&closed)) {
    ReceiverReport report;
    try {
      report = ReceiverReport::parse(datagram->payload);
    } catch (const std::exception& e) {
      RW_WARN("loss-observer") << "bad report: " << e.what();
      continue;
    }
    ++reports_;
    // Prefer the raw link-loss measurement when the receiver supplies one;
    // post-recovery loss hides the very condition FEC should react to (see
    // ReceiverReport::raw_loss).
    const double sample =
        report.raw_loss >= 0.0 ? report.raw_loss : report.window_loss;
    auto [it, created] = smoothed_.try_emplace(report.receiver, 0.0);
    it->second =
        created ? sample : alpha_ * sample + (1.0 - alpha_) * it->second;
  }
  return worst_loss();
}

double LossObserver::loss_for(const std::string& receiver) const {
  auto it = smoothed_.find(receiver);
  return it == smoothed_.end() ? 0.0 : it->second;
}

double LossObserver::worst_loss() const {
  double worst = 0.0;
  for (const auto& [_, loss] : smoothed_) worst = std::max(worst, loss);
  return worst;
}

}  // namespace rapidware::raplets
