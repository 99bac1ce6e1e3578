// Device handoff coordination — the paper's third adaptation trigger:
// "changes in capabilities as the application is handed off from one
// computing device to another" (Section 3).
//
// A handoff atomically (from the stream's point of view: between packets)
// retargets the proxy's egress to the new device and reshapes the chain to
// the device's profile: transcoding depth chosen from the stream rate vs.
// the device's link budget, and FEC inserted or removed per the device's
// wishes. The stream never stops; the old device simply stops receiving
// after the last pre-handoff packet.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/control.h"
#include "proxy/proxy.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::raplets {

struct DeviceProfile {
  std::string name;
  net::Address delivery;        // where this device listens
  double link_budget_bps = 1e9; // sustainable bytes/second
  bool wants_fec = false;       // lossy last hop: protect the stream
  std::size_t fec_n = 6;
  std::size_t fec_k = 4;
};

class HandoffCoordinator {
 public:
  /// `manager` must control `proxy`'s chain (they may use different
  /// transports; the proxy reference is needed for egress retargeting,
  /// which is not a chain operation).
  HandoffCoordinator(proxy::Proxy& proxy, core::ControlManager manager);

  void register_device(DeviceProfile profile);

  /// Moves the stream to `device`. `stream_bps` is the media rate used to
  /// pick the transcoding depth (e.g. 16000 for the paper's audio format).
  /// Throws std::out_of_range for unknown devices.
  void handoff_to(const std::string& device, double stream_bps);

  std::string active_device() const;

  struct Event {
    std::string device;
    int reduction;  // transcode factor applied (1 = none)
    bool fec;
  };
  std::vector<Event> history() const;

 private:
  proxy::Proxy& proxy_;
  core::ControlManager manager_ RW_GUARDED_BY(mu_);

  mutable rw::Mutex mu_{"raplets/handoff", rw::lockrank::kRapletResponder};
  std::map<std::string, DeviceProfile> devices_ RW_GUARDED_BY(mu_);
  std::string active_ RW_GUARDED_BY(mu_);
  std::vector<Event> history_ RW_GUARDED_BY(mu_);
};

}  // namespace rapidware::raplets
