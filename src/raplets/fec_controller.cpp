#include "raplets/fec_controller.h"

#include <sstream>
#include <stdexcept>

#include "util/logging.h"

namespace rapidware::raplets {

namespace {

// Insert and remove are idempotent per stage, so retrying an action a
// failure left half done adds only the missing stages and never stacks a
// second copy of one already in place.
void insert_if_missing(core::ControlManager& manager,
                       const core::FilterSpec& spec, std::size_t pos) {
  if (!manager.find(spec.name)) manager.insert(spec, pos);
}

void remove_if_present(core::ControlManager& manager, const std::string& name) {
  if (const auto pos = manager.find(name)) manager.remove(*pos);
}

}  // namespace

AdaptiveFecController::AdaptiveFecController(AdaptiveFecControllerConfig config)
    : config_(std::move(config)) {
  // Surface bad policy config at construction, not at the first tick.
  FecPolicy probe(config_.policy);
  (void)probe;
  if ((config_.interleave_rows == 0) != (config_.interleave_depth == 0)) {
    throw std::invalid_argument(
        "AdaptiveFecController: interleave rows and depth must be set "
        "together");
  }
}

void AdaptiveFecController::add_flow(FlowConfig flow) {
  if (flow.name.empty()) {
    throw std::invalid_argument("AdaptiveFecController: empty flow name");
  }
  if (!flow.probe) {
    throw std::invalid_argument("AdaptiveFecController: null loss probe");
  }
  rw::MutexLock lk(mu_);
  if (find_locked(flow.name) != nullptr) {
    throw std::invalid_argument("AdaptiveFecController: duplicate flow " +
                                flow.name);
  }
  flows_.push_back(std::make_unique<Flow>(std::move(flow), config_.policy));
}

bool AdaptiveFecController::remove_flow(const std::string& name) {
  rw::MutexLock lk(mu_);
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if ((*it)->cfg.name == name) {
      flows_.erase(it);
      if (active_gauge_) {
        std::int64_t active = 0;
        for (const auto& f : flows_) {
          if (f->policy.active()) ++active;
        }
        active_gauge_->set(active);
      }
      return true;
    }
  }
  return false;
}

std::size_t AdaptiveFecController::tick(util::Micros now) {
  rw::MutexLock lk(mu_);
  std::size_t changed = 0;
  std::int64_t active = 0;
  for (auto& flow : flows_) {
    const double sample = flow->cfg.probe();
    // update() commits the policy to its decision. Keep the state from
    // before it: a failed actuation takes the decision back (and this
    // tick's sample with it), so the next tick decides and acts again.
    const FecPolicy before = flow->policy;
    const FecPolicy::Decision d = flow->policy.update(now, sample);
    if (d.action != FecPolicy::Action::kNone) {
      if (apply_locked(*flow, d, before.n(), now)) {
        ++changed;
      } else {
        flow->policy = before;
      }
    }
    if (flow->policy.active()) ++active;
  }
  if (active_gauge_) active_gauge_->set(active);
  return changed;
}

bool AdaptiveFecController::apply_locked(Flow& flow,
                                         const FecPolicy::Decision& d,
                                         std::size_t applied_n,
                                         util::Micros now) {
  const bool interleave =
      config_.interleave_rows > 0 && config_.interleave_depth > 0;
  const core::ParamMap il_params = {
      {"rows", std::to_string(config_.interleave_rows)},
      {"depth", std::to_string(config_.interleave_depth)}};
  std::ostringstream what;
  try {
    switch (d.action) {
      case FecPolicy::Action::kInsert:
        what << flow.cfg.name << " insert fec(" << d.n << "," << d.k << ")";
        // Decoder side first: every FEC-framed packet that reaches the
        // receiver must find a decoder already in place.
        if (flow.cfg.decoder_control) {
          insert_if_missing(*flow.cfg.decoder_control, {"fec-decode", {}},
                            config_.decoder_pos);
          if (interleave) {
            insert_if_missing(*flow.cfg.decoder_control,
                              {"deinterleave", il_params}, config_.decoder_pos);
          }
        }
        insert_if_missing(flow.cfg.control,
                          {"fec-encode",
                           {{"n", std::to_string(d.n)},
                            {"k", std::to_string(d.k)}}},
                          config_.encoder_pos);
        if (interleave) {
          insert_if_missing(flow.cfg.control, {"interleave", il_params},
                            config_.encoder_pos + 1);
        }
        if (inserts_) inserts_->add();
        break;
      case FecPolicy::Action::kRetune: {
        what << flow.cfg.name << " retune fec(" << d.n << "," << d.k << ")";
        const auto pos = flow.cfg.control.find("fec-encode");
        if (!pos) throw core::ControlError("fec-encode not in chain");
        // The encoder enforces n >= k on every individual set_param, so the
        // update order depends on direction: shrinking the group must lower
        // k first, growing it must raise n first.
        if (d.n < applied_n) {
          flow.cfg.control.set_param(*pos, "k", std::to_string(d.k));
          flow.cfg.control.set_param(*pos, "n", std::to_string(d.n));
        } else {
          flow.cfg.control.set_param(*pos, "n", std::to_string(d.n));
          flow.cfg.control.set_param(*pos, "k", std::to_string(d.k));
        }
        if (retunes_) retunes_->add();
        break;
      }
      case FecPolicy::Action::kRemove:
        what << flow.cfg.name << " remove fec";
        // Encoder first, so no new FEC frames enter the pipe; the decoder
        // drains in pass-through mode before removal.
        remove_if_present(flow.cfg.control, "interleave");
        remove_if_present(flow.cfg.control, "fec-encode");
        if (flow.cfg.decoder_control) {
          remove_if_present(*flow.cfg.decoder_control, "fec-decode");
          remove_if_present(*flow.cfg.decoder_control, "deinterleave");
        }
        if (removes_) removes_->add();
        break;
      case FecPolicy::Action::kNone:
        return false;
    }
  } catch (const std::exception& e) {
    if (failures_) failures_->add();
    trace_locked(now, what.str() + " FAILED: " + e.what());
    RW_WARN("fec-controller") << what.str() << " failed: " << e.what();
    return false;
  }
  what << " loss=" << d.smoothed;
  trace_locked(now, what.str());
  return true;
}

bool AdaptiveFecController::fec_active(const std::string& flow) const {
  rw::MutexLock lk(mu_);
  const Flow* f = find_locked(flow);
  if (f == nullptr) {
    throw std::invalid_argument("AdaptiveFecController: unknown flow " + flow);
  }
  return f->policy.active();
}

double AdaptiveFecController::smoothed_loss(const std::string& flow) const {
  rw::MutexLock lk(mu_);
  const Flow* f = find_locked(flow);
  if (f == nullptr) {
    throw std::invalid_argument("AdaptiveFecController: unknown flow " + flow);
  }
  return f->policy.smoothed();
}

std::size_t AdaptiveFecController::flows() const {
  rw::MutexLock lk(mu_);
  return flows_.size();
}

core::LossRegime AdaptiveFecController::regime(const std::string& flow) const {
  rw::MutexLock lk(mu_);
  const Flow* f = find_locked(flow);
  if (f == nullptr) {
    throw std::invalid_argument("AdaptiveFecController: unknown flow " + flow);
  }
  return core::regime_for_loss(f->policy.smoothed(),
                               config_.policy.insert_threshold);
}

void AdaptiveFecController::bind_metrics(obs::Scope scope) {
  rw::MutexLock lk(mu_);
  inserts_ = scope.counter("inserts");
  retunes_ = scope.counter("retunes");
  removes_ = scope.counter("removes");
  failures_ = scope.counter("failures");
  active_gauge_ = scope.gauge("active_flows");
  trace_ = scope.trace("actions", 64);
}

AdaptiveFecController::Flow* AdaptiveFecController::find_locked(
    const std::string& name) {
  for (auto& f : flows_) {
    if (f->cfg.name == name) return f.get();
  }
  return nullptr;
}

const AdaptiveFecController::Flow* AdaptiveFecController::find_locked(
    const std::string& name) const {
  for (const auto& f : flows_) {
    if (f->cfg.name == name) return f.get();
  }
  return nullptr;
}

void AdaptiveFecController::trace_locked(util::Micros now,
                                         const std::string& text) {
  if (trace_) trace_->record_at(now, text);
}

AdaptiveFecController::LossProbe AdaptiveFecController::delta_loss_probe(
    std::function<std::uint64_t()> attempted,
    std::function<std::uint64_t()> dropped) {
  if (!attempted || !dropped) {
    throw std::invalid_argument("delta_loss_probe: null counter");
  }
  // One probe belongs to one flow; tick() serializes calls, so plain
  // mutable lambda state suffices.
  return [attempted = std::move(attempted), dropped = std::move(dropped),
          last_a = std::uint64_t{0}, last_d = std::uint64_t{0},
          primed = false]() mutable {
    const std::uint64_t a = attempted();
    const std::uint64_t d = dropped();
    const std::uint64_t da = a - last_a;
    const std::uint64_t dd = d - last_d;
    last_a = a;
    last_d = d;
    if (!primed) {
      primed = true;
      // First call establishes the baseline; report the lifetime average.
      return a == 0 ? 0.0 : static_cast<double>(d) / static_cast<double>(a);
    }
    if (da == 0) return 0.0;
    return static_cast<double>(dd) / static_cast<double>(da);
  };
}

}  // namespace rapidware::raplets
