// Tests for the adaptation layer: receiver reports, the loss observer, and
// the full closed loop — a mobile user walks away from the access point,
// loss rises, the adaptive FEC controller inserts FEC into the running
// proxy, and delivery recovers (the paper's Section 3 scenario).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

  // Non-finite losses, in either field, are rejected too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    ReceiverReport window{"x", 1, 1, bad, 0};
    EXPECT_THROW(ReceiverReport::parse(window.serialize()), util::SerialError)
        << "window_loss " << bad;
    ReceiverReport raw{"x", 1, 1, 0.0, 0, bad};
    EXPECT_THROW(ReceiverReport::parse(raw.serialize()), util::SerialError)
        << "raw_loss " << bad;
  }
  // A finite negative raw loss still means "unknown".
  ReceiverReport unknown{"x", 1, 1, 0.0, 0, -1.0};
  EXPECT_EQ(ReceiverReport::parse(unknown.serialize()), unknown);
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
// LossObserver: direct poll() calls. Delivery on an unmodelled SimNetwork
// link is synchronous, so a report is queued by the time send_to returns.

void send_report(ReportWorld& w, const ReceiverReport& report) {
  w.receiver_socket->send_to({w.observer_node, 7000}, report.serialize());
}

TEST(LossObserverTest, SmoothsAndEmitsEvents) {
  ReportWorld w;
  LossObserver observer(w.observer_socket, 0.5);
  EXPECT_DOUBLE_EQ(observer.poll(), 0.0);  // nothing heard yet

  send_report(w, {"mobile", 0, 0, 0.2, 0});
  EXPECT_DOUBLE_EQ(observer.poll(), 0.2);  // first sample unsmoothed
  send_report(w, {"mobile", 0, 0, 0.0, 0});
  EXPECT_DOUBLE_EQ(observer.poll(), 0.1);  // then halved
  EXPECT_DOUBLE_EQ(observer.poll(), 0.1);  // no new report: unchanged

  // One EWMA step per report, however many queue up between polls.
  send_report(w, {"mobile", 0, 0, 0.3, 0});
  send_report(w, {"mobile", 0, 0, 0.3, 0});
  EXPECT_DOUBLE_EQ(observer.poll(), 0.25);  // 0.1 -> 0.2 -> 0.25
  EXPECT_EQ(observer.reports_seen(), 4u);
  EXPECT_DOUBLE_EQ(observer.loss_for("mobile"), 0.25);
}

TEST(LossObserverTest, WorstLossAcrossReceivers) {
  ReportWorld w;
  LossObserver observer(w.observer_socket);
  send_report(w, {"near", 0, 0, 0.01, 0});
  send_report(w, {"far", 0, 0, 0.2, 0});
  EXPECT_DOUBLE_EQ(observer.poll(), 0.2);
  EXPECT_EQ(observer.reports_seen(), 2u);
  EXPECT_DOUBLE_EQ(observer.worst_loss(), 0.2);
  EXPECT_DOUBLE_EQ(observer.loss_for("near"), 0.01);
  EXPECT_DOUBLE_EQ(observer.loss_for("unknown"), 0.0);
}

TEST(LossObserverTest, MalformedReportsIgnored) {
  ReportWorld w;
  LossObserver observer(w.observer_socket);
  w.receiver_socket->send_to({w.observer_node, 7000}, util::to_bytes("junk"));
  send_report(w, {"m", 0, 0, 0.1, 0});
  // A NaN loss would stick in the EWMA and hide this receiver for good.
  send_report(w, {"m", 0, 0, std::nan(""), 0});
  EXPECT_DOUBLE_EQ(observer.poll(), 0.1);
  EXPECT_EQ(observer.reports_seen(), 1u);
  EXPECT_DOUBLE_EQ(observer.loss_for("m"), 0.1);
}

TEST(LossObserverTest, BadAlphaThrows) {
  ReportWorld w;
  EXPECT_THROW(LossObserver(w.observer_socket, 0.0), std::invalid_argument);
  EXPECT_THROW(LossObserver(w.observer_socket, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// A proxy to adapt, reached over its network control port

struct ProxyWorld {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 17};
  net::NodeId sender = net.add_node("sender");
  net::NodeId proxy_node = net.add_node("proxy");
  net::NodeId mobile = net.add_node("mobile");
  std::unique_ptr<proxy::Proxy> px;

  ProxyWorld() {
    filters::register_builtin_filters();
    proxy::ProxyConfig c;
    c.ingress_port = 4000;
    c.egress_dst = {mobile, 5000};
    c.control_port = 4999;
    px = std::make_unique<proxy::Proxy>(net, proxy_node, c);
    px->start();
  }
  ~ProxyWorld() { px->shutdown(); }

  core::ControlManager manager() {
    return core::ControlManager(proxy::network_control_transport(
        net, sender, px->control_address()));
  }
};

// ---------------------------------------------------------------------------
// Closed loop: walk away from the AP, the observer's loss rises, the
// controller reacts, delivery recovers. This is the paper's roaming scenario
// end to end.

TEST(ClosedLoop, DemandDrivenFecReactsToRoaming) {
  ProxyWorld w;
  wireless::WirelessLan wlan(w.net, w.proxy_node);
  wlan.add_station(w.mobile, 5.0);

  // Observer on the proxy node feeding a one-rung FEC(6,4) controller; the
  // observer smooths once per report, so the policy takes samples as-is.
  auto observer_socket = w.net.open(w.proxy_node, 7000);
  LossObserver observer(observer_socket, 0.6);
  AdaptiveFecControllerConfig config;
  config.policy.insert_threshold = 0.02;
  config.policy.remove_threshold = 0.004;
  config.policy.cooldown_us = 2'000'000;
  config.policy.alpha = 1.0;
  config.policy.rungs = {{0.0, 6, 4}};
  AdaptiveFecController controller(config);
  controller.add_flow({"mobile", w.manager(), std::nullopt,
                       [&observer] { return observer.poll(); }});

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

  // Drive the walk: near (clean) -> far (lossy). The sender loop owns the
  // control cadence: one tick every 10 packets (200 ms).
  auto tx = w.net.open(w.sender);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  std::vector<bool> fec_after_change;
  constexpr int kPackets = 4000;
  for (int i = 0; i < kPackets; ++i) {
    if (i == 1000) wlan.set_distance(w.mobile, 38.0);  // step outdoors
    tx->send_to({w.proxy_node, 4000}, packetizer.next().serialize());
    w.clock->advance(20'000);
    if (i % 200 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (i % 10 == 0 && controller.tick(w.clock->now()) > 0) {
      fec_after_change.push_back(controller.fec_active("mobile"));
    }
  }
  receiver.join();

  // The controller must have switched FEC on after the loss rose.
  ASSERT_GE(fec_after_change.size(), 1u);
  EXPECT_TRUE(fec_after_change[0]);
  EXPECT_TRUE(controller.fec_active("mobile"));
  // With FEC active for most of the lossy phase, overall delivery beats the
  // raw far-distance rate by a clear margin.
  const double far_loss = wlan.downlink_loss(w.mobile);
  EXPECT_GT(log.delivery_rate(), 1.0 - far_loss);
}

}  // namespace
}  // namespace rapidware::raplets
