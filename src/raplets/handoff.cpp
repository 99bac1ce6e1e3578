#include "raplets/handoff.h"

#include "raplets/transcode_responder.h"
#include "util/logging.h"

namespace rapidware::raplets {

HandoffCoordinator::HandoffCoordinator(proxy::Proxy& proxy,
                                       core::ControlManager manager)
    : proxy_(proxy), manager_(std::move(manager)) {}

void HandoffCoordinator::register_device(DeviceProfile profile) {
  rw::MutexLock lk(mu_);
  devices_[profile.name] = std::move(profile);
}

void HandoffCoordinator::handoff_to(const std::string& device,
                                    double stream_bps) {
  rw::MutexLock lk(mu_);
  const DeviceProfile& profile = devices_.at(device);

  // 1. Reshape the chain FIRST, so the new device never sees packets in a
  // format it cannot afford. Transcode: insert, retune, or remove.
  const int reduction = reduction_for(stream_bps, profile.link_budget_bps);
  const std::string mode = reduction == 4 ? "mono+half" : "mono";
  if (const auto pos = manager_.find("audio-transcode")) {
    if (reduction == 1) {
      manager_.remove(*pos);
    } else {
      manager_.set_param(*pos, "mode", mode);
    }
  } else if (reduction > 1) {
    manager_.insert({"audio-transcode", {{"mode", mode}}}, 0);
  }

  // FEC sits AFTER the transcoder (protect the bytes actually sent).
  const auto fec_pos = manager_.find("fec-encode");
  if (profile.wants_fec && !fec_pos) {
    manager_.insert({"fec-encode",
                     {{"n", std::to_string(profile.fec_n)},
                      {"k", std::to_string(profile.fec_k)}}},
                    manager_.list_chain().size());
  } else if (!profile.wants_fec && fec_pos) {
    manager_.remove(*fec_pos);
  }

  // 2. Retarget the egress: the next packet out goes to the new device.
  proxy_.retarget_egress(profile.delivery);
  active_ = device;
  history_.push_back({device, reduction, profile.wants_fec});
  RW_INFO("handoff") << "stream handed to '" << device << "' (x" << reduction
                     << (profile.wants_fec ? ", fec)" : ")");
}

std::string HandoffCoordinator::active_device() const {
  rw::MutexLock lk(mu_);
  return active_;
}

std::vector<HandoffCoordinator::Event> HandoffCoordinator::history() const {
  rw::MutexLock lk(mu_);
  return history_;
}

}  // namespace rapidware::raplets
