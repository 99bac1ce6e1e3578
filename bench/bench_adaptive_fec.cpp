// Demand-driven vs static FEC over the roaming trace — the RAPIDware
// adaptation story quantified (Sections 2-3).
//
// One mobile receiver walks office -> conference room -> office while
// receiving a live audio stream through a proxy. Three strategies:
//
//   never-on   — plain forwarding; loss appears as soon as she roams;
//   always-on  — FEC(6,4) from the start; best delivery, constant +50%
//                bandwidth even while she sits next to the access point;
//   on-demand  — a loss observer feeds an AdaptiveFecController that
//                inserts/removes the filter while the stream runs; the
//                sender loop ticks it every 10 packets (200 ms).
//
// Reports delivery, bandwidth overhead, and the controller's reaction time,
// and exits 1 unless on-demand closes at least 90% of the delivery gap
// between never-on and always-on, pays less overhead than always-on, and
// both inserted and removed FEC.
#include <cstdio>
#include <thread>

#include "bench_json.h"
#include "fec/fec_group.h"
#include "filters/fec_filters.h"
#include "filters/registry.h"
#include "filters/stats_filter.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "proxy/proxy.h"
#include "raplets/fec_controller.h"
#include "raplets/loss_observer.h"
#include "raplets/receiver_report.h"
#include "util/stats.h"
#include "wireless/mobility.h"
#include "wireless/wlan.h"

using namespace rapidware;

namespace {

enum class Strategy { kNever, kAlways, kOnDemand };

struct Outcome {
  double delivery;
  double overhead;        // wire bytes / media bytes
  double reaction_s = -1; // time from loss onset to FEC insertion
  int reconfigs = 0;
};

Outcome run(Strategy strategy) {
  filters::register_builtin_filters();
  auto clock = std::make_shared<util::SimClock>();
  net::SimNetwork net(clock, 77);
  const auto sender_node = net.add_node("sender");
  const auto proxy_node = net.add_node("proxy");
  const auto mobile_node = net.add_node("mobile");

  wireless::WirelessLan wlan(net, proxy_node);
  wlan.add_station(mobile_node, 5.0);

  proxy::ProxyConfig config;
  config.ingress_port = 4000;
  config.egress_dst = {mobile_node, 5000};
  proxy::Proxy proxy(net, proxy_node, config);
  proxy.start();
  auto egress_tap = std::make_shared<filters::StatsFilter>("egress");
  proxy.chain().insert(egress_tap, 0);
  if (strategy == Strategy::kAlways) {
    proxy.chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
  }

  // Adaptation plumbing (ticked only by on-demand): a one-rung FEC(6,4)
  // policy over the worst receiver's loss. The observer smooths once per
  // report, so the policy takes its samples as they are (alpha 1).
  auto observer_socket = net.open(proxy_node, 7000);
  raplets::LossObserver observer(observer_socket, 0.5);
  raplets::AdaptiveFecControllerConfig cc;
  cc.policy.insert_threshold = 0.02;
  cc.policy.remove_threshold = 0.004;
  cc.policy.cooldown_us = 2'000'000;
  cc.policy.alpha = 1.0;
  cc.policy.rungs = {{0.0, 6, 4}};
  raplets::AdaptiveFecController controller(cc);
  controller.add_flow({"mobile",
                       core::ControlManager(proxy::network_control_transport(
                           net, proxy_node, proxy.control_address())),
                       std::nullopt, [&observer] { return observer.poll(); }});

  // Mobile receiver with pass-through decoder and raw-loss reporting.
  auto rx = net.open(mobile_node, 5000);
  auto report_socket = net.open(mobile_node);
  raplets::ReportSender reports("mobile", report_socket, {proxy_node, 7000},
                                50);
  fec::GroupDecoder decoder(4);
  media::ReceiverLog log;
  std::uint64_t last_ok = 0, last_miss = 0;
  reports.set_raw_loss_provider([&]() -> double {
    const auto& s = decoder.stats();
    const std::uint64_t ok = s.data_received;
    const std::uint64_t miss = s.data_recovered + s.data_lost;
    const std::uint64_t d_ok = ok - last_ok, d_miss = miss - last_miss;
    last_ok = ok;
    last_miss = miss;
    return (d_ok + d_miss) == 0 ? -1.0
                                : static_cast<double>(d_miss) /
                                      static_cast<double>(d_ok + d_miss);
  });

  std::thread receiver([&] {
    for (;;) {
      auto d = rx->recv(500);
      if (!d) break;
      std::vector<util::Bytes> payloads;
      if (fec::looks_like_fec_packet(d->payload)) {
        payloads = decoder.add(d->payload);
      } else {
        payloads.push_back(d->payload);
      }
      for (const auto& p : payloads) {
        const auto media = media::MediaPacket::parse(p);
        log.on_packet(media, d->deliver_at);
        reports.on_delivered(media.seq, d->deliver_at);
      }
    }
  });

  // Walk: 20 s near, 30 s out to 36 m, 40 s there, 30 s back, 20 s near.
  const wireless::WaypointWalk walk({{util::seconds_to_micros(0), 5.0},
                                     {util::seconds_to_micros(20), 5.0},
                                     {util::seconds_to_micros(50), 36.0},
                                     {util::seconds_to_micros(90), 36.0},
                                     {util::seconds_to_micros(120), 5.0},
                                     {util::seconds_to_micros(140), 5.0}});
  // Loss crosses the policy's 2% insert threshold at this distance:
  const double onset_distance =
      wireless::wavelan_model().distance_for(cc.policy.insert_threshold);
  double onset_s = -1;
  Outcome outcome;

  auto tx = net.open(sender_node);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  std::uint64_t media_bytes = 0;
  const int total_packets =
      static_cast<int>(util::micros_to_seconds(walk.end_time()) * 50);
  for (int i = 0; i < total_packets; ++i) {
    const double distance = walk.distance_at(clock->now());
    if (onset_s < 0 && distance >= onset_distance) {
      onset_s = util::micros_to_seconds(clock->now());
    }
    wlan.set_distance(mobile_node, distance);
    const auto wire = packetizer.next().serialize();
    media_bytes += wire.size();
    tx->send_to({proxy_node, 4000}, wire);
    clock->advance(20'000);
    if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (strategy == Strategy::kOnDemand && i % 10 == 0 &&
        controller.tick(clock->now()) > 0) {
      ++outcome.reconfigs;
      if (outcome.reaction_s < 0 && controller.fec_active("mobile")) {
        outcome.reaction_s = util::micros_to_seconds(clock->now()) - onset_s;
      }
    }
  }
  receiver.join();
  const std::uint64_t wire_bytes = egress_tap->bytes();
  proxy.shutdown();

  outcome.delivery = log.delivery_rate();
  outcome.overhead =
      static_cast<double>(wire_bytes) / static_cast<double>(media_bytes);
  return outcome;
}

}  // namespace

int main() {
  std::printf("=== Demand-driven vs static FEC over a roaming trace ===\n");
  std::printf("(140 s walk: office 5 m -> conference room 36 m -> office)\n\n");
  std::printf("%-10s %10s %12s %14s %10s\n", "strategy", "delivery",
              "overhead", "reaction", "reconfigs");

  Outcome never, always, on_demand;
  const struct {
    const char* name;
    Strategy strategy;
    Outcome* outcome;
  } rows[] = {{"never", Strategy::kNever, &never},
              {"always", Strategy::kAlways, &always},
              {"on-demand", Strategy::kOnDemand, &on_demand}};
  rwbench::JsonSummary json("adaptive_fec");
  json.meta("walk_seconds", 140);
  json.meta("fec_n", 6);
  json.meta("fec_k", 4);
  for (const auto& row : rows) {
    const Outcome& o = *row.outcome = run(row.strategy);
    char reaction[32] = "-";
    if (o.reaction_s >= 0) {
      std::snprintf(reaction, sizeof(reaction), "%.1f s", o.reaction_s);
    }
    std::printf("%-10s %10s %11.2fx %14s %10d\n", row.name,
                util::percent(o.delivery).c_str(), o.overhead, reaction,
                o.reconfigs);
    json.row({{"strategy", row.name},
              {"delivery", o.delivery},
              {"overhead", o.overhead},
              {"reaction_s", o.reaction_s},
              {"reconfigs", o.reconfigs}});
  }
  json.write();

  // Shape check: on-demand approaches always-on delivery while paying the
  // +50% FEC bandwidth only during the lossy middle of the walk.
  const double gap_closed = (on_demand.delivery - never.delivery) /
                            (always.delivery - never.delivery);
  const bool ok = gap_closed >= 0.9 && on_demand.overhead < always.overhead &&
                  on_demand.reconfigs >= 2 && on_demand.reaction_s >= 0;
  std::printf(
      "\nshape check: on-demand closes %.1f%% of the never/always delivery "
      "gap (need >= 90%%),\npays %.2fx against always-on's %.2fx, and made "
      "%d reconfigurations (need >= 2, with an insert): %s\n",
      100.0 * gap_closed, on_demand.overhead, always.overhead,
      on_demand.reconfigs, ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
