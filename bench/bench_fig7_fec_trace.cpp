// Figure 7 reproduction: "Trace data for FEC(6,4) audio FEC".
//
// Paper setup (Section 5): PCM audio recorded at 8000 samples/s, two 8-bit
// channels, streamed through a proxy that inserts FEC(6,4) ("small groups
// so as to minimize jitter") and multicast over a 2 Mbps WaveLAN to a
// receiver 25 m from the access point. The paper plots, per 432-packet
// sequence window, the percentage of packets received raw off the air and
// the percentage available after FEC reconstruction:
//
//     paper:   % received      = 98.54%,  % reconstructed = 99.98%
//
// This harness regenerates both series over the same trace length and
// prints the same two summary numbers.
#include <cstdio>
#include <thread>

#include "bench_json.h"
#include "fec/fec_group.h"
#include "filters/fec_filters.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "proxy/proxy.h"
#include "util/stats.h"
#include "wireless/wlan.h"

using namespace rapidware;

int main() {
  std::printf("=== Figure 7: raw vs reconstructed receipt, FEC(6,4), 25 m ===\n\n");

  auto clock = std::make_shared<util::SimClock>();
  net::SimNetwork net(clock, 1946);
  const auto sender_node = net.add_node("wired-sender");
  const auto proxy_node = net.add_node("proxy");
  const auto mobile_node = net.add_node("mobile");

  wireless::WirelessLan wlan(net, proxy_node);  // 2 Mbps WaveLAN model
  wlan.add_station(mobile_node, 25.0);

  proxy::ProxyConfig config;
  config.ingress_port = 4000;
  config.egress_dst = {mobile_node, 5000};
  proxy::Proxy proxy(net, proxy_node, config);
  proxy.start();
  proxy.chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);

  auto rx = net.open(mobile_node, 5000);
  media::ReceiverLog raw_log(432);  // the paper bins by 432 sequence numbers
  media::ReceiverLog fec_log(432);
  fec::GroupDecoder decoder(4);

  std::thread receiver([&] {
    for (;;) {
      auto d = rx->recv(500);
      if (!d) break;
      util::Reader hr(d->payload);
      const auto header = fec::GroupHeader::decode_from(hr);
      if (!header.is_parity()) {
        raw_log.on_packet(media::MediaPacket::parse(hr.raw(hr.remaining())),
                          d->deliver_at);
      }
      for (const auto& payload : decoder.add(d->payload)) {
        fec_log.on_packet(media::MediaPacket::parse(payload), d->deliver_at);
      }
    }
    for (const auto& payload : decoder.flush()) {
      fec_log.on_packet(media::MediaPacket::parse(payload), 0);
    }
  });

  // The paper's trace spans sequence numbers up to ~5400 (12 ticks of 432).
  auto tx = net.open(sender_node);
  media::AudioSource audio;  // 8000 sps x 2 ch x 8 bit
  media::AudioPacketizer packetizer(audio, 20);
  constexpr int kPackets = 5400;
  for (int i = 0; i < kPackets; ++i) {
    tx->send_to({proxy_node, 4000}, packetizer.next().serialize());
    clock->advance(packetizer.packet_duration_us());
    if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  receiver.join();
  proxy.shutdown();

  rwbench::JsonSummary json("fig7_fec_trace");
  json.meta("fec_n", 6);
  json.meta("fec_k", 4);
  json.meta("distance_m", 25.0);
  json.meta("packets", kPackets);
  std::printf("%-12s %12s %16s\n", "seq window", "% received",
              "% reconstructed");
  const auto raw_bins = raw_log.bins();
  const auto fec_bins = fec_log.bins();
  for (std::size_t i = 0; i < raw_bins.size() && i < fec_bins.size(); ++i) {
    std::printf("%-12u %12s %16s\n", raw_bins[i].first_seq,
                util::percent(raw_bins[i].rate).c_str(),
                util::percent(fec_bins[i].rate).c_str());
    json.row({{"first_seq", raw_bins[i].first_seq},
              {"received_rate", raw_bins[i].rate},
              {"reconstructed_rate", fec_bins[i].rate}});
  }
  json.meta("overall_received_rate", raw_log.delivery_rate());
  json.meta("overall_reconstructed_rate", fec_log.delivery_rate());
  json.meta("smoothed_jitter_us", fec_log.smoothed_jitter_us());
  json.write();
  std::printf("\n%-12s %12s %16s\n", "overall",
              util::percent(raw_log.delivery_rate()).c_str(),
              util::percent(fec_log.delivery_rate()).c_str());
  std::printf("%-12s %12s %16s\n", "paper", "98.54%", "99.98%");
  std::printf("\nsmoothed interarrival jitter: %.1f ms (group size kept small"
              " to bound it)\n",
              fec_log.smoothed_jitter_us() / 1000.0);
  return 0;
}
