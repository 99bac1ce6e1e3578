#include "raplets/transcode_responder.h"

#include "util/logging.h"

namespace rapidware::raplets {

int reduction_for(double stream_bps, double budget_bps) {
  for (const int reduction : {1, 2, 4}) {
    if (stream_bps / reduction <= budget_bps) return reduction;
  }
  return 4;  // deepest available step
}

TranscodeResponder::TranscodeResponder(core::ControlManager manager,
                                       TranscodeResponderConfig config)
    : manager_(std::move(manager)), config_(config) {
  if (config_.link_budget_bps <= 0) {
    throw std::invalid_argument("TranscodeResponder: budget must be > 0");
  }
  if (config_.hysteresis <= 0 || config_.hysteresis > 1.0) {
    throw std::invalid_argument("TranscodeResponder: hysteresis in (0, 1]");
  }
}

void TranscodeResponder::update(util::Micros now, double demand_bps) {
  rw::MutexLock lk(mu_);
  if (ever_changed_ && now - last_change_ < config_.cooldown_us) return;

  const int desired = reduction_for(demand_bps, config_.link_budget_bps);
  if (desired > reduction_) {
    apply(desired, now, demand_bps);  // escalate promptly: the link is overrun
  } else if (desired < reduction_) {
    // De-escalate only with headroom: the shallower step must still fit
    // within the hysteresis fraction of the budget.
    if (demand_bps / desired <=
        config_.link_budget_bps * config_.hysteresis) {
      apply(desired, now, demand_bps);
    }
  }
}

void TranscodeResponder::apply(int reduction, util::Micros now,
                               double demand_bps) {
  try {
    const auto pos = manager_.find("audio-transcode");
    if (reduction == 1) {
      if (pos) manager_.remove(*pos);
    } else {
      const std::string mode = reduction == 2 ? "mono" : "mono+half";
      if (pos) {
        manager_.set_param(*pos, "mode", mode);
      } else {
        manager_.insert({"audio-transcode",
                         {{"mode", mode},
                          {"rate", config_.rate},
                          {"channels", config_.channels},
                          {"bits", config_.bits}}},
                        config_.position);
      }
    }
  } catch (const std::exception& e) {
    RW_WARN("transcode-responder") << "reconfiguration failed: " << e.what();
    return;
  }
  reduction_ = reduction;
  ever_changed_ = true;
  last_change_ = now;
  history_.push_back({now, reduction, demand_bps});
  RW_INFO("transcode-responder")
      << "reduction x" << reduction << " at demand " << demand_bps << " B/s";
}

int TranscodeResponder::current_reduction() const {
  rw::MutexLock lk(mu_);
  return reduction_;
}

std::vector<TranscodeResponder::Action> TranscodeResponder::history() const {
  rw::MutexLock lk(mu_);
  return history_;
}

}  // namespace rapidware::raplets
