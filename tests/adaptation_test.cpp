// Tests for the bandwidth-adaptation raplets: ThroughputObserver and
// TranscodeResponder, plus the combined loop reshaping a live audio stream
// to fit a constrained handheld link.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "filters/registry.h"
#include "filters/stats_filter.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "proxy/proxy.h"
#include "raplets/throughput_observer.h"
#include "raplets/handoff.h"
#include "raplets/transcode_responder.h"

namespace rapidware::raplets {
namespace {

// ---------------------------------------------------------------------------
// ThroughputObserver

TEST(ThroughputObserver, RejectsBadArguments) {
  util::SimClock clock;
  EXPECT_THROW(ThroughputObserver(nullptr, clock), std::invalid_argument);
  const auto counter = [] { return std::uint64_t{0}; };
  EXPECT_THROW(ThroughputObserver(counter, clock, 0.0), std::invalid_argument);
  EXPECT_THROW(ThroughputObserver(counter, clock, 1.5), std::invalid_argument);
}

TEST(ThroughputObserver, DifferentiatesCounter) {
  // Deterministic: no thread, no wall sleeps. The test owns the clock and
  // the cadence via poll(), so every computed rate is exact arithmetic
  // instead of a scheduling-jitter ballpark.
  util::SimClock clock;
  std::uint64_t bytes = 0;
  ThroughputObserver observer([&] { return bytes; }, clock, /*alpha=*/1.0);

  // Feed exactly 1 MB/s: 20'000 bytes per 20 ms virtual interval.
  for (int i = 0; i < 8; ++i) {
    bytes += 20'000;
    clock.advance(20'000);
    EXPECT_DOUBLE_EQ(observer.poll(), 1'000'000.0);
  }

  // Polling while virtual time stands still takes no sample (and divides
  // by nothing): the estimate stays where it was.
  bytes += 20'000;
  EXPECT_DOUBLE_EQ(observer.poll(), 1'000'000.0);
}

TEST(ThroughputObserver, SmoothsRateStepsWithEwma) {
  util::SimClock clock;
  std::uint64_t bytes = 0;
  ThroughputObserver observer([&] { return bytes; }, clock, /*alpha=*/0.5);

  bytes += 20'000;  // 1 MB/s primes the EWMA directly
  clock.advance(20'000);
  EXPECT_DOUBLE_EQ(observer.poll(), 1'000'000.0);

  bytes += 60'000;  // step to 3 MB/s: EWMA moves halfway, not all the way
  clock.advance(20'000);
  EXPECT_DOUBLE_EQ(observer.poll(), 2'000'000.0);

  clock.advance(20'000);  // idle interval: decays halfway toward zero
  EXPECT_DOUBLE_EQ(observer.poll(), 1'000'000.0);
}

// ---------------------------------------------------------------------------
// TranscodeResponder

struct ResponderWorld {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 23};
  net::NodeId client = net.add_node("client");
  net::NodeId proxy_node = net.add_node("proxy");
  net::NodeId mobile = net.add_node("mobile");
  std::unique_ptr<proxy::Proxy> px;

  ResponderWorld() {
    filters::register_builtin_filters();
    proxy::ProxyConfig c;
    c.ingress_port = 4000;
    c.egress_dst = {mobile, 5000};
    c.control_port = 4999;
    px = std::make_unique<proxy::Proxy>(net, proxy_node, c);
    px->start();
  }
  ~ResponderWorld() { px->shutdown(); }

  core::ControlManager manager() {
    return core::ControlManager(proxy::network_control_transport(
        net, client, px->control_address()));
  }
};

TEST(TranscodeResponder, ConfigValidation) {
  ResponderWorld w;
  TranscodeResponderConfig bad;
  bad.link_budget_bps = 0;
  EXPECT_THROW(TranscodeResponder(w.manager(), bad), std::invalid_argument);
  TranscodeResponderConfig bad2;
  bad2.hysteresis = 1.5;
  EXPECT_THROW(TranscodeResponder(w.manager(), bad2), std::invalid_argument);
}

TEST(TranscodeResponder, EscalatesThroughLadder) {
  ResponderWorld w;
  TranscodeResponderConfig config;
  config.link_budget_bps = 8'000;
  config.cooldown_us = 0;
  TranscodeResponder responder(w.manager(), config);

  // 16 kB/s demand over an 8 kB/s budget -> mono (2x).
  responder.update(1000, 16'000);
  EXPECT_EQ(responder.current_reduction(), 2);
  auto infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].description, "transcode(mono)");

  // 32 kB/s -> needs 4x: the existing filter is retuned, not duplicated.
  responder.update(2000, 32'000);
  EXPECT_EQ(responder.current_reduction(), 4);
  infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].description, "transcode(mono+half)");
}

TEST(TranscodeResponder, DeEscalatesWithHysteresis) {
  ResponderWorld w;
  TranscodeResponderConfig config;
  config.link_budget_bps = 8'000;
  config.hysteresis = 0.85;
  config.cooldown_us = 0;
  TranscodeResponder responder(w.manager(), config);

  responder.update(1000, 30'000);
  EXPECT_EQ(responder.current_reduction(), 4);

  // Demand drops to just within budget at 2x — but not within the
  // hysteresis margin (15600/2 = 7800 > 8000*0.85 = 6800): stay at 4x.
  responder.update(2000, 15'600);
  EXPECT_EQ(responder.current_reduction(), 4);

  // Well within margin: de-escalate to 2x, then off.
  responder.update(3000, 13'000);
  EXPECT_EQ(responder.current_reduction(), 2);
  responder.update(4000, 6'000);
  EXPECT_EQ(responder.current_reduction(), 1);
  EXPECT_TRUE(w.manager().list_chain().empty());
}

TEST(TranscodeResponder, CooldownLimitsChanges) {
  ResponderWorld w;
  TranscodeResponderConfig config;
  config.link_budget_bps = 8'000;
  config.cooldown_us = 1'000'000;
  TranscodeResponder responder(w.manager(), config);

  responder.update(1'000'000, 16'000);
  EXPECT_EQ(responder.current_reduction(), 2);
  responder.update(1'200'000, 64'000);  // within cooldown
  EXPECT_EQ(responder.current_reduction(), 2);
  responder.update(2'100'000, 64'000);
  EXPECT_EQ(responder.current_reduction(), 4);
  EXPECT_EQ(responder.history().size(), 2u);
}

// ---------------------------------------------------------------------------
// Full loop: live stream reshaped to fit the link budget

TEST(BandwidthLoop, StreamIsReshapedToFitBudget) {
  ResponderWorld w;
  // Ingress tap feeds the observer; the paper's 16 kB/s stereo stream must
  // fit an 8.5 kB/s link -> mono is the right steady state.
  auto tap = std::make_shared<filters::StatsFilter>("ingress-tap");
  w.px->chain().insert(tap, 0);

  TranscodeResponderConfig config;
  config.link_budget_bps = 8'500;
  config.cooldown_us = 0;
  config.position = 1;  // after the tap
  TranscodeResponder responder(w.manager(), config);
  ThroughputObserver observer([tap] { return tap->bytes(); }, *w.clock);

  auto rx = w.net.open(w.mobile, 5000);
  std::atomic<std::uint64_t> out_bytes{0};
  std::atomic<std::uint64_t> out_packets{0};
  std::thread receiver([&] {
    for (;;) {
      auto d = rx->recv(500);
      if (!d) break;
      out_bytes.fetch_add(d->payload.size());
      out_packets.fetch_add(1);
    }
  });

  // The sender loop owns the cadence: every 25 packets (500 ms) it samples
  // the tap and feeds the responder. A shorter period reacts to the tap's
  // lag behind the sender rather than to the stream.
  auto tx = w.net.open(w.client);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  constexpr int kPackets = 1500;  // 30 media seconds
  for (int i = 0; i < kPackets; ++i) {
    tx->send_to({w.proxy_node, 4000}, packetizer.next().serialize());
    w.clock->advance(20'000);
    if (i % 25 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      responder.update(w.clock->now(), observer.poll());
    }
  }
  receiver.join();

  // The responder engaged transcoding. The exact steady state depends on
  // measurement noise: 2x (mono) fits the budget at ~98% utilization, so a
  // noisy sample can legitimately push the controller to 4x and hysteresis
  // keeps it there. What must hold: adaptation happened and stuck.
  EXPECT_GE(responder.current_reduction(), 2);
  ASSERT_FALSE(responder.history().empty());
  EXPECT_GE(responder.history().back().reduction, 2);
  // All packets still flow; total bytes shrank materially.
  EXPECT_EQ(out_packets.load(), static_cast<std::uint64_t>(kPackets));
  EXPECT_LT(out_bytes.load(), static_cast<std::uint64_t>(kPackets) * 333);
}

// ---------------------------------------------------------------------------
// HandoffCoordinator

TEST(Handoff, UnknownDeviceThrows) {
  ResponderWorld w;
  HandoffCoordinator coordinator(*w.px, w.manager());
  EXPECT_THROW(coordinator.handoff_to("ghost", 16'000), std::out_of_range);
}

TEST(Handoff, ReshapesChainPerDeviceProfile) {
  ResponderWorld w;
  HandoffCoordinator coordinator(*w.px, w.manager());
  const auto laptop = w.net.add_node("laptop");
  const auto palmtop = w.net.add_node("palmtop");
  coordinator.register_device(
      {"laptop", {laptop, 5000}, /*budget*/ 1e6, /*fec*/ false});
  coordinator.register_device(
      {"palmtop", {palmtop, 5000}, /*budget*/ 5'000, /*fec*/ true, 6, 4});

  // To the laptop: plenty of budget, clean link -> bare chain.
  coordinator.handoff_to("laptop", 16'000);
  EXPECT_EQ(coordinator.active_device(), "laptop");
  EXPECT_TRUE(w.manager().list_chain().empty());
  EXPECT_EQ(w.px->egress_destination(), (net::Address{laptop, 5000}));

  // To the palmtop: 16 kB/s into a 5 kB/s budget -> mono+half, plus FEC.
  coordinator.handoff_to("palmtop", 16'000);
  const auto infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].description, "transcode(mono+half)");
  EXPECT_EQ(infos[1].name, "fec-encode");
  EXPECT_EQ(w.px->egress_destination(), (net::Address{palmtop, 5000}));

  // Back to the laptop: transcode and FEC come out again.
  coordinator.handoff_to("laptop", 16'000);
  EXPECT_TRUE(w.manager().list_chain().empty());
  ASSERT_EQ(coordinator.history().size(), 3u);
  EXPECT_EQ(coordinator.history()[1].reduction, 4);
  EXPECT_TRUE(coordinator.history()[1].fec);
}

TEST(Handoff, RetunesExistingTranscoderInsteadOfStacking) {
  ResponderWorld w;
  HandoffCoordinator coordinator(*w.px, w.manager());
  const auto a = w.net.add_node("tablet");
  const auto b = w.net.add_node("watch");
  coordinator.register_device({"tablet", {a, 5000}, 9'000, false});
  coordinator.register_device({"watch", {b, 5000}, 4'500, false});

  coordinator.handoff_to("tablet", 16'000);  // 16k/2=8k <= 9k -> mono
  coordinator.handoff_to("watch", 16'000);   // needs mono+half
  const auto infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].description, "transcode(mono+half)");
}

TEST(Handoff, StreamKeepsFlowingAcrossHandoffs) {
  ResponderWorld w;
  HandoffCoordinator coordinator(*w.px, w.manager());
  const auto laptop = w.net.add_node("laptop2");
  coordinator.register_device({"mobile", {w.mobile, 5000}, 1e6, false});
  coordinator.register_device({"laptop", {laptop, 5000}, 1e6, false});
  coordinator.handoff_to("mobile", 16'000);

  auto rx_mobile = w.net.open(w.mobile, 5000);
  auto rx_laptop = w.net.open(laptop, 5000);
  auto tx = w.net.open(w.client);
  // Predicate waits, not fixed sleeps: drain a receiver until `want`
  // packets surfaced or a generous deadline passes (then the asserts name
  // the shortfall).
  const auto drain = [](net::SimSocket& rx, std::size_t& count,
                        std::size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (count < want && std::chrono::steady_clock::now() < deadline) {
      if (rx.recv(10)) ++count;
    }
  };
  std::size_t mobile_count = 0, laptop_count = 0;
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  for (int i = 0; i < 100; ++i) {
    if (i == 50) {
      // Hand off once the first half has reached the mobile: a packet still
      // inside the proxy at the retarget would go to the laptop, making
      // the split depend on timing.
      drain(*rx_mobile, mobile_count, 50);
      coordinator.handoff_to("laptop", 16'000);
    }
    tx->send_to({w.proxy_node, 4000}, packetizer.next().serialize());
    w.clock->advance(20'000);
    if (i % 20 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain(*rx_laptop, laptop_count, 50);
  while (rx_mobile->recv(0)) ++mobile_count;  // the old device gets no more
  EXPECT_EQ(mobile_count, 50u);
  EXPECT_EQ(laptop_count, 50u);
}

}  // namespace
}  // namespace rapidware::raplets
