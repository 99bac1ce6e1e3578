// Tests for the adaptation layer: receiver reports, the loss observer, the
// demand-driven FEC responder, and the full closed loop — a mobile user
// walks away from the access point, loss rises, the responder inserts FEC
// into the running proxy, and delivery recovers (the paper's Section 3
// scenario).
#include <gtest/gtest.h>

#include <thread>

#include "fec/fec_group.h"
#include "filters/registry.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "proxy/proxy.h"
#include "raplets/adaptation_manager.h"
#include "raplets/fec_responder.h"
#include "raplets/loss_observer.h"
#include "raplets/receiver_report.h"
#include "wireless/mobility.h"
#include "wireless/wlan.h"

namespace rapidware::raplets {
namespace {

using util::Bytes;

// ---------------------------------------------------------------------------
// ReceiverReport

TEST(ReceiverReportTest, SerializationRoundTrips) {
  ReceiverReport r{"mobile-1", 970, 1000, 0.03, 123456};
  EXPECT_EQ(ReceiverReport::parse(r.serialize()), r);
}

TEST(ReceiverReportTest, RejectsOutOfRangeLoss) {
  ReceiverReport r{"x", 1, 1, 2.0, 0};
  EXPECT_THROW(ReceiverReport::parse(r.serialize()), util::SerialError);
}

struct ReportWorld {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 5};
  net::NodeId receiver_node = net.add_node("receiver");
  net::NodeId observer_node = net.add_node("observer");
  std::shared_ptr<net::SimSocket> observer_socket =
      net.open(observer_node, 7000);
  std::shared_ptr<net::SimSocket> receiver_socket = net.open(receiver_node);
};

TEST(ReportSenderTest, EmitsReportPerWindow) {
  ReportWorld w;
  ReportSender sender("mobile", w.receiver_socket, {w.observer_node, 7000},
                      /*interval_packets=*/10);
  // Deliver seq 0..9 minus seq 4 => one report with 10% window loss.
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    if (seq == 4) continue;
    sender.on_delivered(seq, 1000);
  }
  EXPECT_EQ(sender.reports_sent(), 1u);
  auto d = w.observer_socket->recv(1000);
  ASSERT_TRUE(d.has_value());
  const auto report = ReceiverReport::parse(d->payload);
  EXPECT_EQ(report.receiver, "mobile");
  EXPECT_NEAR(report.window_loss, 0.1, 1e-9);
  EXPECT_EQ(report.expected, 10u);
}

TEST(ReportSenderTest, LossLengthensNothing) {
  // Windows are sequence-based: heavy loss still produces reports.
  ReportWorld w;
  ReportSender sender("mobile", w.receiver_socket, {w.observer_node, 7000}, 10);
  for (std::uint32_t seq = 0; seq < 100; seq += 5) {  // 80% loss
    sender.on_delivered(seq, 0);
  }
  EXPECT_GE(sender.reports_sent(), 8u);
}

TEST(ReportSenderTest, ZeroIntervalThrows) {
  ReportWorld w;
  EXPECT_THROW(
      ReportSender("m", w.receiver_socket, {w.observer_node, 7000}, 0),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LossObserver

TEST(LossObserverTest, SmoothsAndEmitsEvents) {
  ReportWorld w;
  auto observer = std::make_shared<LossObserver>(w.observer_socket, 0.5);
  std::mutex mu;
  std::vector<Event> events;
  observer->set_sink([&](const Event& e) {
    std::lock_guard lk(mu);
    events.push_back(e);
  });
  observer->start();

  auto send_report = [&](double loss) {
    ReceiverReport r{"mobile", 0, 0, loss, 0};
    w.receiver_socket->send_to({w.observer_node, 7000}, r.serialize());
  };
  send_report(0.2);
  send_report(0.0);

  // Wait for both reports to be absorbed.
  for (int i = 0; i < 100 && observer->reports_seen() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  observer->stop();

  ASSERT_EQ(observer->reports_seen(), 2u);
  EXPECT_DOUBLE_EQ(observer->loss_for("mobile"), 0.1);  // 0.2 then halved
  std::lock_guard lk(mu);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "loss-rate");
  EXPECT_DOUBLE_EQ(events[0].value, 0.2);  // first sample unsmoothed
  EXPECT_DOUBLE_EQ(events[1].value, 0.1);
}

TEST(LossObserverTest, WorstLossAcrossReceivers) {
  ReportWorld w;
  auto observer = std::make_shared<LossObserver>(w.observer_socket);
  observer->start();
  ReceiverReport a{"near", 0, 0, 0.01, 0};
  ReceiverReport b{"far", 0, 0, 0.2, 0};
  w.receiver_socket->send_to({w.observer_node, 7000}, a.serialize());
  w.receiver_socket->send_to({w.observer_node, 7000}, b.serialize());
  for (int i = 0; i < 100 && observer->reports_seen() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  observer->stop();
  EXPECT_DOUBLE_EQ(observer->worst_loss(), 0.2);
  EXPECT_DOUBLE_EQ(observer->loss_for("unknown"), 0.0);
}

TEST(LossObserverTest, MalformedReportsIgnored) {
  ReportWorld w;
  auto observer = std::make_shared<LossObserver>(w.observer_socket);
  observer->start();
  w.receiver_socket->send_to({w.observer_node, 7000}, util::to_bytes("junk"));
  ReceiverReport ok{"m", 0, 0, 0.1, 0};
  w.receiver_socket->send_to({w.observer_node, 7000}, ok.serialize());
  for (int i = 0; i < 100 && observer->reports_seen() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  observer->stop();
  EXPECT_EQ(observer->reports_seen(), 1u);
}

TEST(LossObserverTest, BadAlphaThrows) {
  ReportWorld w;
  EXPECT_THROW(LossObserver(w.observer_socket, 0.0), std::invalid_argument);
  EXPECT_THROW(LossObserver(w.observer_socket, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FecResponder against a live proxy

struct ResponderWorld {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 17};
  net::NodeId sender = net.add_node("sender");
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
        net, sender, px->control_address()));
  }
};

Event loss_event(double value, util::Micros at) {
  return Event{"loss-rate", "mobile", value, at};
}

TEST(FecResponderTest, InsertsAboveThresholdRemovesBelow) {
  ResponderWorld w;
  FecResponderConfig config;
  config.insert_threshold = 0.02;
  config.remove_threshold = 0.005;
  config.cooldown_us = 0;
  FecResponder responder(w.manager(), std::nullopt, config);

  responder.on_event(loss_event(0.01, 1000));  // below: nothing
  EXPECT_FALSE(responder.fec_active());
  EXPECT_TRUE(w.manager().list_chain().empty());

  responder.on_event(loss_event(0.05, 2000));  // above: insert
  EXPECT_TRUE(responder.fec_active());
  auto infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "fec-encode");

  responder.on_event(loss_event(0.01, 3000));  // hysteresis band: keep
  EXPECT_TRUE(responder.fec_active());

  responder.on_event(loss_event(0.001, 4000));  // below remove: remove
  EXPECT_FALSE(responder.fec_active());
  EXPECT_TRUE(w.manager().list_chain().empty());

  const auto history = responder.history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_TRUE(history[0].inserted);
  EXPECT_FALSE(history[1].inserted);
}

TEST(FecResponderTest, CooldownPreventsFlapping) {
  ResponderWorld w;
  FecResponderConfig config;
  config.insert_threshold = 0.02;
  config.remove_threshold = 0.01;
  config.cooldown_us = 1'000'000;
  FecResponder responder(w.manager(), std::nullopt, config);

  responder.on_event(loss_event(0.05, 1'000'000));
  EXPECT_TRUE(responder.fec_active());
  responder.on_event(loss_event(0.0, 1'500'000));  // within cooldown
  EXPECT_TRUE(responder.fec_active());
  responder.on_event(loss_event(0.0, 2'100'000));  // cooldown passed
  EXPECT_FALSE(responder.fec_active());
}

TEST(FecResponderTest, ManagesDecoderSideToo) {
  ResponderWorld w;
  // Second "receiver-side" proxy on the mobile node.
  proxy::ProxyConfig rc;
  rc.ingress_port = 5000;
  rc.egress_dst = {w.mobile, 5001};
  rc.control_port = 5999;
  proxy::Proxy receiver_proxy(w.net, w.mobile, rc);
  receiver_proxy.start();

  FecResponderConfig config;
  config.cooldown_us = 0;
  FecResponder responder(
      w.manager(),
      core::ControlManager(proxy::network_control_transport(
          w.net, w.sender, receiver_proxy.control_address())),
      config);

  responder.on_event(loss_event(0.08, 1000));
  EXPECT_TRUE(responder.fec_active());
  core::ControlManager rx_manager(proxy::network_control_transport(
      w.net, w.sender, receiver_proxy.control_address()));
  ASSERT_EQ(rx_manager.list_chain().size(), 1u);
  EXPECT_EQ(rx_manager.list_chain()[0].name, "fec-decode");

  responder.on_event(loss_event(0.0, 2000));
  EXPECT_TRUE(rx_manager.list_chain().empty());
  receiver_proxy.shutdown();
}

TEST(FecResponderTest, IgnoresUnrelatedEvents) {
  ResponderWorld w;
  FecResponderConfig config;
  config.cooldown_us = 0;
  FecResponder responder(w.manager(), std::nullopt, config);
  responder.on_event({"battery-low", "mobile", 0.99, 1000});
  EXPECT_FALSE(responder.fec_active());
}

TEST(FecResponderTest, BadThresholdsThrow) {
  ResponderWorld w;
  FecResponderConfig config;
  config.insert_threshold = 0.01;
  config.remove_threshold = 0.05;  // inverted
  EXPECT_THROW(FecResponder(w.manager(), std::nullopt, config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Closed loop: walk away from the AP, observer + responder react, delivery
// recovers. This is the paper's roaming scenario end to end.

TEST(ClosedLoop, DemandDrivenFecReactsToRoaming) {
  ResponderWorld w;
  wireless::WirelessLan wlan(w.net, w.proxy_node);
  wlan.add_station(w.mobile, 5.0);

  // Observer service on the proxy node.
  auto observer_socket = w.net.open(w.proxy_node, 7000);
  auto observer = std::make_shared<LossObserver>(observer_socket, 0.6);
  FecResponderConfig config;
  config.insert_threshold = 0.02;
  config.remove_threshold = 0.002;
  config.cooldown_us = 0;
  auto responder =
      std::make_shared<FecResponder>(w.manager(), std::nullopt, config);
  AdaptationManager adaptation(observer, responder);
  adaptation.start();

  // Mobile receiver: permanent pass-through decoder + report sender.
  auto rx = w.net.open(w.mobile, 5000);
  auto report_socket = w.net.open(w.mobile);
  ReportSender reports("mobile", report_socket, {w.proxy_node, 7000}, 25);
  fec::GroupDecoder decoder(4);
  media::ReceiverLog log;
  // Raw link loss from FEC-layer deltas; unknown (-1) while FEC is off, in
  // which case the observer falls back to post-delivery window loss.
  std::uint64_t last_ok = 0, last_miss = 0;
  reports.set_raw_loss_provider([&]() -> double {
    const auto& s = decoder.stats();
    const std::uint64_t ok = s.data_received;
    const std::uint64_t miss = s.data_recovered + s.data_lost;
    const std::uint64_t d_ok = ok - last_ok, d_miss = miss - last_miss;
    last_ok = ok;
    last_miss = miss;
    const std::uint64_t total = d_ok + d_miss;
    return total == 0 ? -1.0
                      : static_cast<double>(d_miss) / static_cast<double>(total);
  });
  std::thread receiver([&] {
    for (;;) {
      auto d = rx->recv(500);
      if (!d) break;
      std::vector<Bytes> payloads;
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

  // Drive the walk: near (clean) -> far (lossy).
  auto tx = w.net.open(w.sender);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  constexpr int kPackets = 4000;
  for (int i = 0; i < kPackets; ++i) {
    if (i == 1000) wlan.set_distance(w.mobile, 38.0);  // step outdoors
    tx->send_to({w.proxy_node, 4000}, packetizer.next().serialize());
    w.clock->advance(20'000);
    if (i % 200 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  receiver.join();
  adaptation.stop();

  // The responder must have switched FEC on after the loss rose.
  const auto history = responder->history();
  ASSERT_GE(history.size(), 1u);
  EXPECT_TRUE(history[0].inserted);
  EXPECT_TRUE(responder->fec_active());
  // With FEC active for most of the lossy phase, overall delivery beats the
  // raw far-distance rate by a clear margin.
  const double far_loss = wlan.downlink_loss(w.mobile);
  EXPECT_GT(log.delivery_rate(), 1.0 - far_loss);
}

}  // namespace
}  // namespace rapidware::raplets
