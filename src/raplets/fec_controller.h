// Closed-loop adaptive FEC controller, built for virtual-time operation.
//
// The controller *polls*: each registered flow pairs a ControlManager (the
// reconfiguration path into a live proxy chain) with a loss probe (a delta
// over per-station obs:: STATS — attempted vs dropped counters — or a
// LossObserver draining receiver reports). tick(now) polls every flow once,
// feeds the sample through the flow's FecPolicy, and actuates the resulting
// decision: insert fec-encode (+ optional interleaver, + optional
// fec-decode on a receiver-side chain), retune n/k in place via set_param,
// or remove everything when the link recovers.
//
// The controller has no thread or clock of its own — whoever owns the
// cadence calls tick(). On virtual time that is one util::PeriodicTask per
// controller: `PeriodicTask(clock, period, [&](auto now){ ctl.tick(now); })`;
// a sender loop can equally tick it every few packets.
//
// Actuation failures (a concurrent operator removed the chain, transport
// died) are counted and traced, never thrown: the control loop must keep
// servicing its other flows. A decision stands only once its actuation
// succeeded, so the next tick retries a failed one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/control.h"
#include "core/flow_classifier.h"
#include "obs/metrics.h"
#include "raplets/fec_policy.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::raplets {

struct AdaptiveFecControllerConfig {
  FecPolicyConfig policy;
  std::size_t encoder_pos = 0;  // chain position for fec-encode
  std::size_t decoder_pos = 0;  // chain position for fec-decode
  /// Interleaver inserted right after the encoder when depth > 0, spreading
  /// each FEC group's packets across `depth` groups to break loss bursts.
  std::size_t interleave_rows = 0;
  std::size_t interleave_depth = 0;
};

class AdaptiveFecController {
 public:
  /// Returns the fraction of packets lost since the previous call, in
  /// [0, 1]. Called once per tick, always from inside tick().
  using LossProbe = std::function<double()>;

  struct FlowConfig {
    std::string name;
    core::ControlManager control;  // encoder-side chain
    std::optional<core::ControlManager> decoder_control;  // receiver side
    LossProbe probe;
  };

  explicit AdaptiveFecController(AdaptiveFecControllerConfig config = {});

  void add_flow(FlowConfig flow);

  /// Forgets the named flow — the expiry half of the per-flow lifecycle
  /// (pair with FlowTable::expire when the flow's chain is torn down). The
  /// chain itself is NOT touched: teardown belongs to whoever owns it.
  /// False if the flow is unknown.
  bool remove_flow(const std::string& name);

  /// Polls every flow once at virtual (or wall) time `now`; applies policy
  /// decisions through the control path. Returns the number of successful
  /// reconfigurations this tick.
  std::size_t tick(util::Micros now);

  bool fec_active(const std::string& flow) const;
  double smoothed_loss(const std::string& flow) const;
  std::size_t flows() const;

  /// The flow's current loss regime — smoothed loss run through
  /// core::regime_for_loss with the policy's insert_threshold as the
  /// "degraded" onset (severe keeps its 15% default), so the regime flips
  /// exactly when this controller would act. This is the bridge from the
  /// controller's channel estimate to a classifier FlowKey: callers build
  /// {station, stream_type, regime(flow)} and let the rule table pick the
  /// chain (docs/flow_classification.md).
  core::LossRegime regime(const std::string& flow) const;

  /// Publishes controller metrics (inserts/retunes/removes/failures
  /// counters, active-flows gauge, action trace ring) under `scope`.
  void bind_metrics(obs::Scope scope);

  /// Builds a LossProbe differentiating two monotonic counters (attempted,
  /// dropped) — the natural probe over wireless::WirelessLan::bind_metrics
  /// or ChannelStats-backed STATS.
  static LossProbe delta_loss_probe(std::function<std::uint64_t()> attempted,
                                    std::function<std::uint64_t()> dropped);

 private:
  struct Flow {
    FlowConfig cfg;
    FecPolicy policy;
    Flow(FlowConfig c, const FecPolicyConfig& p)
        : cfg(std::move(c)), policy(p) {}
  };

  /// `applied_n` is the code the encoder runs now (0 when FEC is off).
  bool apply_locked(Flow& flow, const FecPolicy::Decision& d,
                    std::size_t applied_n, util::Micros now) RW_REQUIRES(mu_);
  Flow* find_locked(const std::string& name) RW_REQUIRES(mu_);
  const Flow* find_locked(const std::string& name) const RW_REQUIRES(mu_);
  void trace_locked(util::Micros now, const std::string& text)
      RW_REQUIRES(mu_);

  const AdaptiveFecControllerConfig config_;

  mutable rw::Mutex mu_{"raplets/fec_controller", rw::lockrank::kFecController};
  std::vector<std::unique_ptr<Flow>> flows_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> inserts_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> retunes_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> removes_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> failures_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Gauge> active_gauge_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::TraceRing> trace_ RW_GUARDED_BY(mu_);
};

}  // namespace rapidware::raplets
