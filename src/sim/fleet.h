// FleetSim: the 10,000-station closed-loop sweep on virtual time.
//
// Scale is the point. The SimNetwork/WirelessLan stack simulates a handful
// of stations with real threads, real sockets, and mutex-guarded loss
// models — perfect for integration tests, hopeless for 10^4 stations times
// hours of audio. FleetSim keeps the *models* (the calibrated WaveLAN path
// loss curve, Gilbert-Elliott burst loss with the WlanConfig burst shape,
// the office-to-conference mobility trace, the raplets::FecPolicy decision
// core) but strips the machinery: per-station loss state is inlined and
// lock-free, all packets of a control tick are batched, and the whole fleet
// advances on one util::SimClock event per tick. 10,000 stations x one
// virtual hour x 50 pkt/s is ~1.8e9 channel draws and finishes in seconds.
//
// Determinism contract: one seed fans out (util::Rng::split) into one
// stream per station in construction order; the tick event processes
// stations in index order on the single driving thread; mobility and
// path-loss math are pure. Two runs with the same FleetConfig therefore
// produce byte-identical STATS dumps (stats_text()) and action traces —
// asserted by the sim_determinism_a/_b ctest cases and the CI
// sim-determinism job.
//
// Closed loop: each station owns a raplets::FecPolicy fed once per tick
// with that tick's observed channel loss. Decisions take effect at FEC
// group boundaries, exactly like a live fec-encode insert/retune/remove
// through the FilterChain path (which AdaptiveFecController drives and
// tests/fec_controller_test.cpp proves byte-exact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flow_classifier.h"
#include "obs/metrics.h"
#include "raplets/fec_policy.h"
#include "util/clock.h"
#include "util/rng.h"
#include "wireless/mobility.h"
#include "wireless/path_loss.h"

namespace rapidware::sim {

struct FleetConfig {
  std::size_t stations = 10'000;
  std::uint64_t seed = 0x5eedf1eeULL;

  /// Audio workload: the paper's 20 ms packetization.
  double packet_rate_hz = 50.0;
  /// Control cadence: mobility/channel retune + one FecPolicy update per
  /// station per tick. Must divide packets evenly (rate * tick in whole
  /// packets).
  util::Micros tick_us = 1'000'000;

  /// Static stations sit here — the paper's 25 m measurement point
  /// (~1.46% raw loss).
  double base_distance_m = 25.0;
  /// Fraction of stations that walk office -> conference room.
  double mobile_fraction = 0.0;
  double near_m = 5.0;
  double far_m = 35.0;
  /// Mobile stations cycle: dwell at near_m, walk out over walk_s, dwell at
  /// far_m, walk back — so channels recover as well as degrade.
  double dwell_s = 300.0;
  double walk_s = 60.0;
  /// Mobile station i starts its walk with a deterministic per-station
  /// phase in [0, stagger_s), so departures spread over the run.
  double stagger_s = 1800.0;

  /// Burst shape, matching wireless::WlanConfig defaults.
  double mean_burst_len = 1.2;
  double loss_in_bad = 0.5;

  /// The closed loop. Disable to measure the uncontrolled baseline.
  bool controller_enabled = true;
  raplets::FecPolicyConfig policy;

  /// Per-flow classification (docs/flow_classification.md): each station is
  /// one flow keyed {station, "audio", loss regime}; every tick the regime
  /// is derived from the station's smoothed loss (raw tick loss when the
  /// controller is off) and, on a regime change, the flow re-resolves
  /// against the classifier's rule table — the fleet-scale version of a
  /// proxy re-keying a flow. Strictly opt-in: the default keeps stats
  /// byte-identical to a pre-classifier fleet (the pinned determinism
  /// hash). The classifier runs unbound (no metrics scope), so resolution
  /// never reads a wall clock and stats stay a pure function of the seed.
  bool classify_flows = false;

  wireless::PathLossModel path_loss;  // default-initialized = wavelan_model
  std::size_t trace_capacity = 128;

  FleetConfig();
};

class FleetSim {
 public:
  /// Attaches to `clock` (not owned) and arms the per-tick event; the first
  /// tick fires one tick_us after the current virtual time. Other events
  /// co-scheduled on the same clock interleave deterministically.
  FleetSim(util::SimClock& clock, FleetConfig config);

  /// Convenience: clock.run_for(dt). All ticks inside fire in order.
  void run_for(util::Micros dt) { clock_->run_for(dt); }

  const FleetConfig& config() const noexcept { return config_; }
  util::Micros now() const { return clock_->now(); }

  // Aggregates (data = payload packets; air = everything incl. parity).
  std::uint64_t data_sent() const;
  std::uint64_t data_delivered() const;
  double received_rate() const;  // data_delivered / data_sent
  double raw_loss_rate() const;  // air_dropped / air_sent
  double fec_overhead() const;   // air_sent / data_sent
  std::uint64_t inserts() const noexcept { return inserts_; }
  std::uint64_t retunes() const noexcept { return retunes_; }
  std::uint64_t removes() const noexcept { return removes_; }
  std::size_t active_fec_stations() const;
  std::uint64_t ticks() const noexcept { return ticks_; }

  // --- Flow classification (config.classify_flows) -----------------------

  /// The rule table stations resolve against. Seeded with a three-regime
  /// default (clean -> passthrough, degraded -> fec-light, severe ->
  /// fec-heavy); callers may edit it before running. Meaningless unless
  /// classify_flows is set.
  core::FlowClassifier& classifier() noexcept { return classifier_; }

  /// Station `i`'s current regime / resolved chain spec (spec is null until
  /// the station's first classification).
  core::LossRegime station_regime(std::size_t i) const;
  core::ChainSpecRef station_spec(std::size_t i) const;

  /// Lifetime count of flow re-keyings (regime changes, incl. the initial
  /// classification of every station).
  std::uint64_t reclassifications() const noexcept {
    return reclassifications_;
  }

  /// Stations currently in `regime`.
  std::size_t stations_in_regime(core::LossRegime regime) const;

  /// The full per-station STATS snapshot (obs::Entry list, name-sorted by
  /// construction): fleet/config/*, fleet/station/NNNNN/*, fleet/summary/*,
  /// and the bounded controller action trace. Deterministic per seed.
  obs::Snapshot stats_snapshot() const;

  /// obs::render(stats_snapshot()) — the byte-comparable STATS dump.
  std::string stats_text() const;

  /// Oldest retained controller actions ("t=<us> station=N insert
  /// fec(6,4) loss=..."), capped at config.trace_capacity.
  const std::vector<std::string>& action_trace() const noexcept {
    return trace_;
  }

 private:
  struct Station {
    util::Rng rng;
    raplets::FecPolicy policy;
    double distance_m = 0.0;
    // Inline Gilbert-Elliott state (single-threaded: no lock).
    double p_gb = 0.0;
    double p_bg = 1.0;
    bool bad = false;
    // Mobility: < 0 marks a static station; otherwise the virtual time at
    // which this station's copy of the shared walk trace starts.
    util::Micros walk_start = -1;
    // FEC framing: adopted at group boundaries from the policy's desires.
    std::uint32_t cur_n = 0;  // 0 = FEC off
    std::uint32_t cur_k = 0;
    std::uint32_t group_pos = 0;
    std::uint32_t group_drops = 0;
    std::uint32_t group_data_drops = 0;
    // Flow classification (only maintained when config.classify_flows).
    core::LossRegime regime = core::LossRegime::kClean;
    bool classified = false;
    core::ChainSpecRef spec;
    // Lifetime counters.
    std::uint64_t data_sent = 0;
    std::uint64_t data_delivered = 0;
    std::uint64_t air_sent = 0;
    std::uint64_t air_dropped = 0;
    // Per-tick window, reset after each policy update.
    std::uint32_t tick_sent = 0;
    std::uint32_t tick_dropped = 0;

    Station(util::Rng r, const raplets::FecPolicyConfig& p)
        : rng(r), policy(p) {}
  };

  void tick(util::Micros now);
  void classify_station(std::size_t i, double loss_basis);
  double walk_distance(util::Micros elapsed) const;
  void retune_channel(Station& s) const;
  void station_packets(Station& s, int count);
  void flush_partial_group(const Station& s, std::uint64_t& extra_sent,
                           std::uint64_t& extra_delivered) const;

  util::SimClock* clock_;
  const FleetConfig config_;
  int packets_per_tick_ = 0;
  wireless::WaypointWalk walk_;
  // Fleet-private spec table: sim determinism must not depend on what other
  // code interned in the process-global table.
  core::FilterSpecTable spec_table_;
  core::FlowClassifier classifier_{&spec_table_};
  std::uint64_t reclassifications_ = 0;
  std::vector<Station> stations_;
  std::vector<std::string> trace_;
  std::uint64_t trace_dropped_ = 0;  // actions beyond trace_capacity
  std::uint64_t inserts_ = 0;
  std::uint64_t retunes_ = 0;
  std::uint64_t removes_ = 0;
  std::uint64_t ticks_ = 0;
  util::PeriodicTask task_;  // last member: armed after everything else is ready
};

}  // namespace rapidware::sim
