// The paper's flagship scenario (Section 5, Figures 6 & 7): a live audio
// stream crosses a proxy that adds FEC(6,4) before the wireless hop; three
// wireless laptops receive it at different distances from the access point.
//
// Prints per-receiver raw receipt vs. FEC-reconstructed rates — the same
// quantities Figure 7 plots — then queries the proxy's own STATS verb and
// cross-checks its per-filter counters against the ground truth the sender
// and receivers observed.
//
// Run: ./audio_fec_proxy
// Set RW_STATS_LOG_MS=<ms> to also log registry snapshots periodically
// while the stream runs (obs::StatsLogSink).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "fec/fec_group.h"
#include "filters/fec_filters.h"
#include "filters/registry.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "obs/metrics.h"
#include "obs/stats_log.h"
#include "proxy/proxy.h"
#include "util/stats.h"
#include "wireless/wlan.h"

using namespace rapidware;

namespace {

struct Receiver {
  std::string name;
  double distance_m;
  net::NodeId node;
  std::shared_ptr<net::SimSocket> socket;
  media::ReceiverLog raw_log{432};
  media::ReceiverLog fec_log{432};
  fec::GroupDecoder decoder{4};
  std::thread thread;
};

}  // namespace

int main() {
  filters::register_builtin_filters();

  auto clock = std::make_shared<util::SimClock>();
  net::SimNetwork net(clock, 2001);
  const auto sender_node = net.add_node("wired-sender");
  const auto proxy_node = net.add_node("proxy");

  // Wireless LAN: the paper's 2 Mbps WaveLAN, receivers at 10/25/32 m.
  wireless::WirelessLan wlan(net, proxy_node);
  const net::Address group = net::multicast_group(1, 5000);

  std::vector<Receiver> receivers;
  for (const auto& [name, dist] :
       {std::pair{"laptop-near", 10.0}, {"laptop-mid", 25.0},
        {"laptop-far", 32.0}}) {
    Receiver r;
    r.name = name;
    r.distance_m = dist;
    r.node = net.add_node(name);
    wlan.add_station(r.node, dist);
    r.socket = net.open(r.node, 5000);
    r.socket->join(group);
    receivers.push_back(std::move(r));
  }

  // The proxy: ingress from the wired side, multicast egress to the WLAN,
  // with an FEC(6,4) encoder in the chain (small groups minimize jitter).
  proxy::ProxyConfig config;
  config.name = "fec-audio-proxy";
  config.ingress_port = 4000;
  config.egress_dst = group;
  proxy::Proxy proxy(net, proxy_node, config);
  proxy.start();
  proxy.chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);

  // Optional periodic stats log, an operator's view while the stream runs.
  std::unique_ptr<obs::StatsLogSink> stats_log;
  if (const char* ms = std::getenv("RW_STATS_LOG_MS"); ms && *ms) {
    stats_log = std::make_unique<obs::StatsLogSink>(
        obs::registry(), config.name,
        std::chrono::milliseconds(std::atoi(ms)));
  }

  // Receiver loops: count raw FEC-layer arrivals and reconstructed audio.
  for (auto& r : receivers) {
    r.thread = std::thread([&r] {
      for (;;) {
        auto d = r.socket->recv(500);
        if (!d) break;
        util::Reader hr(d->payload);
        const auto header = fec::GroupHeader::decode_from(hr);
        if (!header.is_parity()) {
          // Raw receipt: a source packet arrived off the air.
          const auto body = hr.raw(hr.remaining());
          r.raw_log.on_packet(media::MediaPacket::parse(body), d->deliver_at);
        }
        for (const auto& payload : r.decoder.add(d->payload)) {
          r.fec_log.on_packet(media::MediaPacket::parse(payload),
                              d->deliver_at);
        }
      }
      for (const auto& payload : r.decoder.flush()) {
        r.fec_log.on_packet(media::MediaPacket::parse(payload), 0);
      }
    });
  }

  // The wired sender: PCM audio at the paper's rates, 20 ms packets.
  std::printf("streaming ~108 s of 8 kHz stereo 8-bit audio (5400 packets)\n");
  std::printf("proxy chain: [wired-rx] -> fec-enc(6,4) -> [wireless-mcast]\n\n");
  auto tx = net.open(sender_node);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  constexpr int kPackets = 5400;  // ~ the Figure 7 trace length
  for (int i = 0; i < kPackets; ++i) {
    tx->send_to({proxy_node, 4000}, packetizer.next().serialize());
    clock->advance(packetizer.packet_duration_us());
    if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (auto& r : receivers) r.thread.join();
  stats_log.reset();

  // Ask the RUNNING proxy what it did — the STATS verb over the control
  // protocol — and check its counters against the ground truth this process
  // observed at the sender (the integrity oracle for the proxy's ledger).
  {
    core::ControlManager manager(proxy::network_control_transport(
        net, sender_node, proxy.control_address()));
    const auto entries = manager.stats(config.name);
    auto value = [&](const std::string& name) -> std::string {
      for (const auto& [k, v] : entries) {
        if (k == name) return v;
      }
      return "<missing>";
    };
    bool all_ok = true;
    const auto expect = [&all_ok](const std::string& got, std::uint64_t want) {
      if (got == std::to_string(want)) return "ok";
      all_ok = false;
      return "MISMATCH";
    };
    const std::uint64_t wire_packets = kPackets / 4 * 6;  // FEC(6,4)
    std::printf("\nSTATS cross-check (proxy's ledger vs this process):\n");
    std::printf("  %-44s %8s  want %llu (%s)\n", "fec-audio-proxy/ingress/packets",
                value("fec-audio-proxy/ingress/packets").c_str(),
                static_cast<unsigned long long>(kPackets),
                expect(value("fec-audio-proxy/ingress/packets"), kPackets));
    std::printf("  %-44s %8s  want %llu (%s)\n",
                "fec-audio-proxy/chain/fec-encode/packets_in",
                value("fec-audio-proxy/chain/fec-encode/packets_in").c_str(),
                static_cast<unsigned long long>(kPackets),
                expect(value("fec-audio-proxy/chain/fec-encode/packets_in"),
                       kPackets));
    std::printf("  %-44s %8s  want %llu (%s)\n",
                "fec-audio-proxy/chain/fec-encode/packets_out",
                value("fec-audio-proxy/chain/fec-encode/packets_out").c_str(),
                static_cast<unsigned long long>(wire_packets),
                expect(value("fec-audio-proxy/chain/fec-encode/packets_out"),
                       wire_packets));
#if RW_OBS_ENABLED
    std::printf("  %-44s %8s  want %llu (%s)\n",
                "fec-audio-proxy/chain/fec-encode/groups_encoded",
                value("fec-audio-proxy/chain/fec-encode/groups_encoded").c_str(),
                static_cast<unsigned long long>(kPackets / 4),
                expect(value("fec-audio-proxy/chain/fec-encode/groups_encoded"),
                       kPackets / 4));
#endif
    if (!all_ok) {
      std::fprintf(stderr, "STATS cross-check failed\n");
      return 1;
    }
  }
  proxy.shutdown();

  std::printf("%-12s %9s %12s %15s %10s\n", "receiver", "dist", "%received",
              "%reconstructed", "jitter");
  for (auto& r : receivers) {
    std::printf("%-12s %7.0f m %12s %15s %7.1f ms\n", r.name.c_str(),
                r.distance_m, util::percent(r.raw_log.delivery_rate()).c_str(),
                util::percent(r.fec_log.delivery_rate()).c_str(),
                r.fec_log.smoothed_jitter_us() / 1000.0);
  }
  std::printf(
      "\n(paper, Figure 7, 25 m: 98.54%% received, 99.98%% reconstructed)\n");
  return 0;
}
