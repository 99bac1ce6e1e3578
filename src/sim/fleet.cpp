#include "sim/fleet.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace rapidware::sim {

namespace {

std::string pad5(std::size_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%05llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

FleetConfig::FleetConfig() : path_loss(wireless::wavelan_model()) {
  // Fleet default: a slower EWMA than the live-chain controller. At
  // 50 pkt/s a tick's loss sample has 2% granularity, so ~1.5% channels
  // produce frequent zero-loss ticks; alpha 0.3 then decays below the
  // remove threshold on a ~6-tick clean run (p ≈ 1% per tick) and the
  // fleet flaps FEC off exactly where the paper keeps it on. Alpha 0.1
  // needs ~19 consecutive clean ticks (p ≈ 1e-6): stations at the 25 m
  // measurement point hold FEC steadily, matching Figure 7.
  policy.alpha = 0.1;
}

FleetSim::FleetSim(util::SimClock& clock, FleetConfig config)
    : clock_(&clock),
      config_(std::move(config)),
      walk_(wireless::WaypointWalk::office_to_conference(
          config_.near_m, config_.far_m, config_.dwell_s, config_.walk_s)),
      task_(clock, config_.tick_us,
            [this](util::Micros now) { tick(now); }) {
  if (config_.stations == 0) {
    throw std::invalid_argument("FleetSim: need at least one station");
  }
  if (config_.tick_us <= 0 || config_.packet_rate_hz <= 0.0) {
    throw std::invalid_argument("FleetSim: positive tick and packet rate");
  }
  if (config_.mobile_fraction < 0.0 || config_.mobile_fraction > 1.0) {
    throw std::invalid_argument("FleetSim: mobile_fraction in [0, 1]");
  }
  if (config_.loss_in_bad <= 0.0 || config_.loss_in_bad > 1.0) {
    throw std::invalid_argument("FleetSim: loss_in_bad in (0, 1]");
  }
  packets_per_tick_ = static_cast<int>(
      config_.packet_rate_hz * util::micros_to_seconds(config_.tick_us) + 0.5);
  if (packets_per_tick_ < 1) {
    throw std::invalid_argument("FleetSim: tick shorter than one packet");
  }

  if (config_.classify_flows) {
    // Default three-regime table; the worked example of
    // docs/flow_classification.md at fleet scale. Callers may retune it via
    // classifier() before running.
    core::FlowRule clean;
    clean.name = "clean-passthrough";
    clean.priority = 10;
    clean.regime = core::LossRegime::kClean;
    clean.chain.name = "passthrough";
    classifier_.add_rule(std::move(clean));

    core::FlowRule degraded;
    degraded.name = "degraded-fec";
    degraded.priority = 20;
    degraded.regime = core::LossRegime::kDegraded;
    degraded.chain.name = "fec-light";
    degraded.chain.stages = {{"fec-encode", {{"n", "6"}, {"k", "4"}}}};
    classifier_.add_rule(std::move(degraded));

    core::FlowRule severe;
    severe.name = "severe-fec";
    severe.priority = 30;
    severe.regime = core::LossRegime::kSevere;
    severe.chain.name = "fec-heavy";
    severe.chain.stages = {{"fec-encode", {{"n", "8"}, {"k", "4"}}},
                           {"interleave", {{"rows", "4"}, {"depth", "4"}}}};
    classifier_.add_rule(std::move(severe));
  }

  // One root seed fans out into per-station streams in index order — the
  // whole fleet's randomness is a pure function of config_.seed.
  util::Rng root(config_.seed);
  const std::size_t mobile_count = static_cast<std::size_t>(
      config_.mobile_fraction * static_cast<double>(config_.stations) + 0.5);
  const util::Micros stagger_us = std::max<util::Micros>(
      util::seconds_to_micros(config_.stagger_s), 1);
  stations_.reserve(config_.stations);
  for (std::size_t i = 0; i < config_.stations; ++i) {
    stations_.emplace_back(root.split(), config_.policy);
    Station& s = stations_.back();
    if (i < mobile_count) {
      s.walk_start = static_cast<util::Micros>(
          s.rng.next_below(static_cast<std::uint64_t>(stagger_us)));
      s.distance_m = walk_distance(-s.walk_start);
    } else {
      s.distance_m = config_.base_distance_m;
    }
    s.p_bg = 1.0 / std::max(1.0, config_.mean_burst_len);
    retune_channel(s);
  }
}

double FleetSim::walk_distance(util::Micros elapsed) const {
  // The shared WaypointWalk trace is one-way (office -> conference); the
  // fleet cycles it: dwell near, walk out, dwell far, walk back, repeat —
  // so every mobile station's channel both degrades AND recovers, driving
  // the controller's remove path as well as its insert path.
  if (elapsed < 0) return walk_.distance_at(elapsed);  // not yet departed
  const util::Micros dwell = util::seconds_to_micros(config_.dwell_s);
  const util::Micros walk = util::seconds_to_micros(config_.walk_s);
  const util::Micros cycle = 2 * (dwell + walk);
  util::Micros e = elapsed % cycle;
  if (e < dwell + walk) return walk_.distance_at(e);  // near dwell + out
  e -= dwell + walk;
  if (e < dwell) return config_.far_m;  // conference-room dwell
  return walk_.distance_at(dwell + walk - (e - dwell));  // mirrored return
}

void FleetSim::retune_channel(Station& s) const {
  // Same math as net::GilbertElliottLoss::with_average, inlined: the burst
  // shape (p_bg, loss_in_bad) is fixed, the entry rate tracks the path-loss
  // model at the station's current distance.
  const double target = std::clamp(config_.path_loss.loss_at(s.distance_m),
                                   0.0, config_.loss_in_bad * 0.999);
  const double pi_b = target / config_.loss_in_bad;
  s.p_gb = pi_b >= 1.0 ? 1.0 : std::min(1.0, pi_b * s.p_bg / (1.0 - pi_b));
}

void FleetSim::station_packets(Station& s, int count) {
  const double loss_in_bad = config_.loss_in_bad;
  for (int p = 0; p < count; ++p) {
    if (s.group_pos == 0) {
      // Group boundary: adopt the policy's current desire, exactly like a
      // live fec-encode insert/retune/remove between groups.
      const bool want = s.policy.active();
      s.cur_n = want ? static_cast<std::uint32_t>(s.policy.n()) : 0;
      s.cur_k = want ? static_cast<std::uint32_t>(s.policy.k()) : 0;
    }
    // Gilbert-Elliott step (transition, then state-dependent drop), same
    // order as net::GilbertElliottLoss::drop.
    if (s.bad) {
      if (s.rng.next_double() < s.p_bg) s.bad = false;
    } else if (s.rng.next_double() < s.p_gb) {
      s.bad = true;
    }
    const bool dropped = s.bad && s.rng.next_double() < loss_in_bad;
    ++s.air_sent;
    ++s.tick_sent;
    if (dropped) {
      ++s.air_dropped;
      ++s.tick_dropped;
    }
    if (s.cur_n == 0) {
      ++s.data_sent;
      if (!dropped) ++s.data_delivered;
      continue;
    }
    // Systematic FEC(n,k): the first k packets of a group are data, the
    // rest parity. Any k received packets recover all k data packets.
    const bool is_data = s.group_pos < s.cur_k;
    ++s.group_pos;
    if (dropped) {
      ++s.group_drops;
      if (is_data) ++s.group_data_drops;
    }
    if (s.group_pos == s.cur_n) {
      s.data_sent += s.cur_k;
      s.data_delivered += s.group_drops <= s.cur_n - s.cur_k
                              ? s.cur_k
                              : s.cur_k - s.group_data_drops;
      s.group_pos = 0;
      s.group_drops = 0;
      s.group_data_drops = 0;
    }
  }
}

void FleetSim::tick(util::Micros now) {
  ++ticks_;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    Station& s = stations_[i];
    if (s.walk_start >= 0) {
      const double d = walk_distance(now - s.walk_start);
      if (d != s.distance_m) {
        s.distance_m = d;
        retune_channel(s);
      }
    }
    station_packets(s, packets_per_tick_);
    const double sample =
        s.tick_sent == 0 ? 0.0
                         : static_cast<double>(s.tick_dropped) /
                               static_cast<double>(s.tick_sent);
    s.tick_sent = 0;
    s.tick_dropped = 0;
    if (!config_.controller_enabled) {
      // No smoothed estimate without the policy loop; classify (if asked)
      // on the raw tick sample.
      if (config_.classify_flows) classify_station(i, sample);
      continue;
    }
    const raplets::FecPolicy::Decision d = s.policy.update(now, sample);
    if (config_.classify_flows) classify_station(i, s.policy.smoothed());
    if (d.action == raplets::FecPolicy::Action::kNone) continue;
    const char* verb = nullptr;
    switch (d.action) {
      case raplets::FecPolicy::Action::kInsert:
        ++inserts_;
        verb = "insert";
        break;
      case raplets::FecPolicy::Action::kRetune:
        ++retunes_;
        verb = "retune";
        break;
      case raplets::FecPolicy::Action::kRemove:
        ++removes_;
        verb = "remove";
        break;
      case raplets::FecPolicy::Action::kNone:
        break;
    }
    if (trace_.size() < config_.trace_capacity) {
      std::ostringstream os;
      os << "t=" << now << " station=" << i << ' ' << verb;
      if (d.action != raplets::FecPolicy::Action::kRemove) {
        os << " fec(" << d.n << ',' << d.k << ')';
      }
      os << " loss=" << obs::format_value(d.smoothed);
      trace_.push_back(os.str());
    } else {
      ++trace_dropped_;
    }
  }
}

void FleetSim::classify_station(std::size_t i, double loss_basis) {
  Station& s = stations_[i];
  const core::LossRegime regime = core::regime_for_loss(loss_basis);
  if (s.classified && regime == s.regime) return;
  // Regime change re-keys the flow: resolve the new key exactly once, like
  // a proxy's flow table seeing the first packet of the re-keyed flow.
  s.regime = regime;
  s.classified = true;
  s.spec = classifier_.resolve(
      {static_cast<std::uint32_t>(i), "audio", regime});
  ++reclassifications_;
}

core::LossRegime FleetSim::station_regime(std::size_t i) const {
  return stations_.at(i).regime;
}

core::ChainSpecRef FleetSim::station_spec(std::size_t i) const {
  return stations_.at(i).spec;
}

std::size_t FleetSim::stations_in_regime(core::LossRegime regime) const {
  std::size_t n = 0;
  for (const Station& s : stations_) {
    n += (s.classified && s.regime == regime) ? 1 : 0;
  }
  return n;
}

void FleetSim::flush_partial_group(const Station& s, std::uint64_t& extra_sent,
                                   std::uint64_t& extra_delivered) const {
  // Mid-group data packets can no longer be repaired (their parity never
  // made it onto the air), so they count as plain transmissions.
  if (s.cur_n == 0 || s.group_pos == 0) return;
  const std::uint32_t data = std::min(s.group_pos, s.cur_k);
  extra_sent += data;
  extra_delivered += data - s.group_data_drops;
}

std::uint64_t FleetSim::data_sent() const {
  std::uint64_t total = 0, extra = 0, unused = 0;
  for (const Station& s : stations_) {
    total += s.data_sent;
    flush_partial_group(s, extra, unused);
  }
  return total + extra;
}

std::uint64_t FleetSim::data_delivered() const {
  std::uint64_t total = 0, unused = 0, extra = 0;
  for (const Station& s : stations_) {
    total += s.data_delivered;
    flush_partial_group(s, unused, extra);
  }
  return total + extra;
}

double FleetSim::received_rate() const {
  const std::uint64_t sent = data_sent();
  if (sent == 0) return 1.0;
  return static_cast<double>(data_delivered()) / static_cast<double>(sent);
}

double FleetSim::raw_loss_rate() const {
  std::uint64_t sent = 0, dropped = 0;
  for (const Station& s : stations_) {
    sent += s.air_sent;
    dropped += s.air_dropped;
  }
  if (sent == 0) return 0.0;
  return static_cast<double>(dropped) / static_cast<double>(sent);
}

double FleetSim::fec_overhead() const {
  const std::uint64_t data = data_sent();
  if (data == 0) return 1.0;
  std::uint64_t air = 0;
  for (const Station& s : stations_) air += s.air_sent;
  return static_cast<double>(air) / static_cast<double>(data);
}

std::size_t FleetSim::active_fec_stations() const {
  std::size_t n = 0;
  for (const Station& s : stations_) n += s.policy.active() ? 1 : 0;
  return n;
}

obs::Snapshot FleetSim::stats_snapshot() const {
  obs::Snapshot out;
  out.reserve(stations_.size() * 9 + trace_.size() + 24);
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };

  // Entries are emitted pre-sorted (classifier < config < controller <
  // station < summary; stations and trace indexes zero-padded), matching
  // Registry::snapshot()'s name ordering. Classifier entries (and the
  // per-station "regime" line) appear only when classification is on, so
  // a default-config fleet renders byte-identically to a pre-classifier
  // one — the pinned determinism hash depends on it.
  if (config_.classify_flows) {
    out.push_back({"fleet/classifier/fallback_hits",
                   u64(classifier_.fallback_hits())});
    out.push_back({"fleet/classifier/reclassifications",
                   u64(reclassifications_)});
    out.push_back({"fleet/classifier/regime/clean",
                   u64(stations_in_regime(core::LossRegime::kClean))});
    out.push_back({"fleet/classifier/regime/degraded",
                   u64(stations_in_regime(core::LossRegime::kDegraded))});
    out.push_back({"fleet/classifier/regime/severe",
                   u64(stations_in_regime(core::LossRegime::kSevere))});
    std::vector<std::string> rule_names;
    for (const core::FlowRule& rule : classifier_.rules()) {
      rule_names.push_back(rule.name);
    }
    std::sort(rule_names.begin(), rule_names.end());
    for (const std::string& name : rule_names) {
      out.push_back({"fleet/classifier/rule/" + name + "/hits",
                     u64(classifier_.hits(name))});
    }
    out.push_back({"fleet/classifier/specs", u64(spec_table_.size())});
  }
  out.push_back({"fleet/config/controller",
                 u64(config_.controller_enabled ? 1 : 0)});
  out.push_back({"fleet/config/packets_per_tick",
                 std::to_string(packets_per_tick_)});
  out.push_back({"fleet/config/seed", u64(config_.seed)});
  out.push_back({"fleet/config/stations", u64(config_.stations)});
  out.push_back({"fleet/config/tick_us", u64(static_cast<std::uint64_t>(
                                             config_.tick_us))});

  for (std::size_t i = 0; i < trace_.size(); ++i) {
    out.push_back({"fleet/controller/trace." + pad5(i), trace_[i]});
  }

  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const Station& s = stations_[i];
    std::uint64_t extra_sent = 0, extra_delivered = 0;
    flush_partial_group(s, extra_sent, extra_delivered);
    const std::string p = "fleet/station/" + pad5(i) + "/";
    out.push_back({p + "air_dropped", u64(s.air_dropped)});
    out.push_back({p + "air_sent", u64(s.air_sent)});
    out.push_back({p + "bad", s.bad ? "1" : "0"});
    out.push_back({p + "data_delivered",
                   u64(s.data_delivered + extra_delivered)});
    out.push_back({p + "data_sent", u64(s.data_sent + extra_sent)});
    out.push_back({p + "distance_m", obs::format_value(s.distance_m)});
    out.push_back({p + "fec_k", u64(s.cur_k)});
    out.push_back({p + "fec_n", u64(s.cur_n)});
    if (config_.classify_flows) {
      // "regime" sorts between "fec_n" and "smoothed_loss".
      out.push_back({p + "regime", core::to_string(s.regime)});
    }
    out.push_back({p + "smoothed_loss",
                   obs::format_value(s.policy.smoothed())});
  }

  out.push_back({"fleet/summary/active_fec_stations",
                 u64(active_fec_stations())});
  out.push_back({"fleet/summary/data_delivered", u64(data_delivered())});
  out.push_back({"fleet/summary/data_sent", u64(data_sent())});
  out.push_back({"fleet/summary/fec_overhead",
                 obs::format_value(fec_overhead())});
  out.push_back({"fleet/summary/inserts", u64(inserts_)});
  out.push_back({"fleet/summary/raw_loss_rate",
                 obs::format_value(raw_loss_rate())});
  out.push_back({"fleet/summary/received_rate",
                 obs::format_value(received_rate())});
  out.push_back({"fleet/summary/removes", u64(removes_)});
  out.push_back({"fleet/summary/retunes", u64(retunes_)});
  out.push_back({"fleet/summary/ticks", u64(ticks_)});
  out.push_back({"fleet/summary/trace_dropped", u64(trace_dropped_)});
  return out;
}

std::string FleetSim::stats_text() const {
  return obs::render(stats_snapshot());
}

}  // namespace rapidware::sim
