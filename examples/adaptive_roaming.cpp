// Demand-driven FEC during roaming — Section 3's motivating story, end to
// end: a user keeps a live audio stream while walking from her office (near
// the access point) to a conference room down the hall. Loss rises with
// distance; the loss-observer raplet sees receiver reports degrade and the
// adaptive FEC controller, ticked by the sender loop every 200 ms, inserts
// an FEC(6,4) filter into the *running* stream; when she walks back, the
// filter is removed again.
//
// Prints a timeline of distance, measured loss, and adaptation actions, and
// exits 1 unless FEC was inserted during the walk and is off again at its
// end.
//
// Run: ./adaptive_roaming
#include <cstdio>
#include <thread>

#include "fec/fec_group.h"
#include "filters/registry.h"
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

int main() {
  filters::register_builtin_filters();

  auto clock = std::make_shared<util::SimClock>();
  net::SimNetwork net(clock, 42);
  const auto sender_node = net.add_node("wired-sender");
  const auto proxy_node = net.add_node("proxy");
  const auto mobile_node = net.add_node("mobile");

  wireless::WirelessLan wlan(net, proxy_node);
  wlan.add_station(mobile_node, 5.0);

  proxy::ProxyConfig config;
  config.name = "roaming-proxy";
  config.ingress_port = 4000;
  config.egress_dst = {mobile_node, 5000};
  proxy::Proxy proxy(net, proxy_node, config);
  proxy.start();

  // Adaptation plumbing: observer on the proxy node + a one-rung FEC(6,4)
  // controller. The observer smooths once per report, so the policy takes
  // its samples as they are (alpha 1).
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
  struct Action {
    util::Micros at;
    bool inserted;
    double loss;
  };
  std::vector<Action> history;

  // Mobile receiver: permanent pass-through-capable decoder + reports.
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

  // The walk: 20 s near the AP, 30 s walking out to 36 m, 40 s dwelling,
  // 30 s walking back, 20 s near again. 20 ms audio cadence.
  const wireless::WaypointWalk walk({{util::seconds_to_micros(0), 5.0},
                                     {util::seconds_to_micros(20), 5.0},
                                     {util::seconds_to_micros(50), 36.0},
                                     {util::seconds_to_micros(90), 36.0},
                                     {util::seconds_to_micros(120), 5.0},
                                     {util::seconds_to_micros(140), 5.0}});

  std::printf("%-6s %-8s %-12s %-10s %s\n", "t(s)", "dist(m)", "link-loss",
              "fec", "chain");
  core::ControlManager viewer(proxy::network_control_transport(
      net, sender_node, proxy.control_address()));

  auto tx = net.open(sender_node);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  const int total_packets =
      static_cast<int>(util::micros_to_seconds(walk.end_time()) * 50);
  for (int i = 0; i < total_packets; ++i) {
    const util::Micros now = clock->now();
    const double distance = walk.distance_at(now);
    wlan.set_distance(mobile_node, distance);
    tx->send_to({proxy_node, 4000}, packetizer.next().serialize());
    clock->advance(20'000);
    if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (i % 10 == 0 && controller.tick(clock->now()) > 0) {
      history.push_back({clock->now(), controller.fec_active("mobile"),
                         controller.smoothed_loss("mobile")});
    }
    if (i % 250 == 0) {  // report every 5 media seconds
      std::printf("%-6.0f %-8.1f %-12s %-10s %s\n",
                  util::micros_to_seconds(now), distance,
                  util::percent(wlan.downlink_loss(mobile_node)).c_str(),
                  controller.fec_active("mobile") ? "ACTIVE" : "off",
                  viewer.render_chain("in", "out").c_str());
    }
  }

  receiver.join();
  proxy.shutdown();

  std::printf("\nadaptation history:\n");
  for (const auto& action : history) {
    std::printf("  t=%5.1fs  %s (smoothed loss %s)\n",
                util::micros_to_seconds(action.at),
                action.inserted ? "FEC inserted" : "FEC removed ",
                util::percent(action.loss).c_str());
  }
  std::printf("\noverall delivery after adaptation: %s (%llu packets)\n",
              util::percent(log.delivery_rate()).c_str(),
              static_cast<unsigned long long>(log.delivered()));
  // Back next to the access point, FEC must have come out again.
  const bool ok = !history.empty() && history.front().inserted &&
                  !controller.fec_active("mobile");
  std::printf("%s\n", ok ? "FEC followed the walk in and out — done."
                          : "FAILED: FEC did not follow the walk");
  return ok ? 0 : 1;
}
