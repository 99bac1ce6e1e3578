// Tests for the proxy assembly: socket endpoints, the data path through a
// networked proxy, remote control (ControlManager over datagrams), and the
// end-to-end FEC path over a lossy simulated WLAN.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <system_error>
#include <thread>

#include "core/worker_pool.h"
#include "filters/fec_filters.h"
#include "filters/registry.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/receiver_log.h"
#include "obs/metrics.h"
#include "proxy/proxy.h"
#include "proxy/socket_endpoints.h"
#include "util/rng.h"
#include "wireless/wlan.h"

namespace rapidware::proxy {
namespace {

using util::Bytes;
using util::to_bytes;
using util::to_string;

struct World {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  net::SimNetwork net{clock, 99};
  net::NodeId sender = net.add_node("sender");
  net::NodeId proxy_node = net.add_node("proxy");
  net::NodeId mobile = net.add_node("mobile");

  ProxyConfig config() {
    ProxyConfig c;
    c.ingress_port = 4000;
    c.egress_dst = {mobile, 5000};
    c.control_port = 4999;
    return c;
  }
};

/// Counts readiness fires; what a reader endpoint's drive registers.
struct CountingScheduler final : core::Scheduler {
  void on_readable() override { readable.fetch_add(1); }
  void on_writable() override {}
  std::atomic<int> readable{0};
};

TEST(SocketEndpointsTest, SourceDeliversAndInterrupts) {
  World w;
  auto in = w.net.open(w.proxy_node, 4000);
  auto out = w.net.open(w.sender);
  SocketPacketSource source(in);
  CountingScheduler sched;
  source.set_scheduler(&sched);
  bool finished = true;
  EXPECT_FALSE(source.poll_packet(&finished).has_value());  // arms
  EXPECT_FALSE(finished);

  out->send_to({w.proxy_node, 4000}, to_bytes("datagram"));
  EXPECT_EQ(sched.readable.load(), 1);  // the arrival fired the watcher
  auto packet = source.poll_packet(&finished);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(to_string(*packet), "datagram");

  EXPECT_FALSE(source.poll_packet(&finished).has_value());  // re-arms
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    source.interrupt();
  });
  interrupter.join();
  EXPECT_EQ(sched.readable.load(), 2);  // the interrupt fired it too
  EXPECT_FALSE(source.poll_packet(&finished).has_value());
  EXPECT_TRUE(finished);
  source.set_scheduler(nullptr);
}

TEST(SocketEndpointsTest, SourceStopsWhenSocketClosedElsewhere) {
  World w;
  auto in = w.net.open(w.proxy_node, 4000);
  SocketPacketSource source(in);
  CountingScheduler sched;
  source.set_scheduler(&sched);
  bool finished = true;
  EXPECT_FALSE(source.poll_packet(&finished).has_value());
  EXPECT_FALSE(finished);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in->close();
  });
  closer.join();
  EXPECT_EQ(sched.readable.load(), 1);
  EXPECT_FALSE(source.poll_packet(&finished).has_value());
  EXPECT_TRUE(finished);
  source.set_scheduler(nullptr);
}

TEST(SocketEndpointsTest, SinkSendsToDestination) {
  World w;
  auto out = w.net.open(w.proxy_node);
  auto rx = w.net.open(w.mobile, 5000);
  SocketPacketSink sink(out, {w.mobile, 5000});
  sink.deliver(to_bytes("payload"));
  auto d = rx->recv(1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(to_string(d->payload), "payload");
}

TEST(Proxy, NullProxyForwards) {
  World w;
  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();

  auto tx = w.net.open(w.sender);
  auto rx = w.net.open(w.mobile, 5000);
  for (int i = 0; i < 20; ++i) {
    tx->send_to({w.proxy_node, 4000}, to_bytes("p" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) {
    auto d = rx->recv(2000);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(to_string(d->payload), "p" + std::to_string(i));
  }
  proxy.shutdown();
}

/// Threads of this process (entries of /proc/self/task), or -1 where the
/// platform does not expose them.
int thread_count() {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

TEST(Proxy, StartingAProxyAddsOnlyItsControlThread) {
  // Every stage runs as a drive on the shared worker pool: a live proxy —
  // main chain with two inserted filters plus eight per-flow chains — adds
  // exactly one thread, its control loop.
  core::default_worker_pool();
  const int before = thread_count();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not available";
  World w;
  auto tx = w.net.open(w.sender);
  auto rx = w.net.open(w.mobile, 5000);
  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();
  proxy.chain().insert(std::make_shared<core::NullFilter>("n0"), 0);
  proxy.chain().insert(std::make_shared<core::NullFilter>("n1"), 1);
  for (int i = 0; i < 4; ++i) {
    tx->send_to({w.proxy_node, 4000}, to_bytes("main" + std::to_string(i)));
  }
  for (std::uint32_t f = 0; f < 8; ++f) {
    core::FlowKey key;
    key.station = f;
    proxy.flow_push(key, to_bytes("flow" + std::to_string(f)));
  }
  // All twelve packets reach the mobile: every chain is live.
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(rx->recv(5000).has_value());
  EXPECT_EQ(proxy.flows().size(), 8u);
  EXPECT_EQ(thread_count(), before + 1);
  proxy.shutdown();
}

TEST(Proxy, StartTwiceThrows) {
  World w;
  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();
  EXPECT_THROW(proxy.start(), std::runtime_error);
  proxy.shutdown();
}

TEST(Proxy, MulticastIngress) {
  World w;
  auto config = w.config();
  const net::Address group = net::multicast_group(1, 4000);
  config.ingress_group = group;
  Proxy proxy(w.net, w.proxy_node, config);
  proxy.start();

  auto tx = w.net.open(w.sender);
  auto rx = w.net.open(w.mobile, 5000);
  tx->send_to(group, to_bytes("via-group"));
  auto d = rx->recv(2000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(to_string(d->payload), "via-group");
  proxy.shutdown();
}

TEST(Proxy, RemoteControlInsertAndList) {
  filters::register_builtin_filters();
  World w;
  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();

  core::ControlManager manager(
      network_control_transport(w.net, w.sender, proxy.control_address()));
  EXPECT_TRUE(manager.list_chain().empty());
  manager.insert({"stats", {{"name", "tap"}}}, 0);
  manager.insert({"fec-encode", {{"n", "6"}, {"k", "4"}}}, 1);
  const auto infos = manager.list_chain();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "tap");
  EXPECT_EQ(infos[1].description, "fec-enc(6,4)");

  manager.remove(0);
  EXPECT_EQ(manager.list_chain().size(), 1u);
  proxy.shutdown();
}

TEST(Proxy, RemoteStatsReportsTrafficAndFilters) {
  filters::register_builtin_filters();
  World w;
  auto config = w.config();
  config.name = "stats-proxy";
  Proxy proxy(w.net, w.proxy_node, config);
  proxy.start();

  core::ControlManager manager(
      network_control_transport(w.net, w.sender, proxy.control_address()));
  manager.insert({"fec-encode", {{"n", "6"}, {"k", "4"}}}, 0);

  auto tx = w.net.open(w.sender);
  auto rx = w.net.open(w.mobile, 5000);
  constexpr int kPackets = 8;
  for (int i = 0; i < kPackets; ++i) {
    tx->send_to({w.proxy_node, 4000}, Bytes(320, static_cast<std::uint8_t>(i)));
  }
  // FEC(6,4) emits parity after each group of 4; 8 data -> 12 wire packets.
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(rx->recv(2000).has_value());

  const auto entries = manager.stats("stats-proxy");
  auto value = [&](const std::string& name) -> std::string {
    for (const auto& [k, v] : entries) {
      if (k == name) return v;
    }
    return "<missing: " + name + ">";
  };
  // Socket-level truth, matching what the test's own sockets saw.
  EXPECT_EQ(value("stats-proxy/ingress/packets"), std::to_string(kPackets));
  EXPECT_EQ(value("stats-proxy/egress/packets"), "12");
#if RW_OBS_ENABLED
  EXPECT_EQ(value("stats-proxy/chain/fec-encode/packets_in"),
            std::to_string(kPackets));
  EXPECT_EQ(value("stats-proxy/chain/fec-encode/packets_out"), "12");
  EXPECT_EQ(value("stats-proxy/chain/fec-encode/groups_encoded"), "2");
  // The STATS requests themselves are control traffic (insert + this one).
  EXPECT_NE(value("stats-proxy/control/requests"), "0");
#endif
  proxy.shutdown();

  // shutdown() withdraws every published metric: a later STATS against a
  // fresh proxy must not see stale "stats-proxy" entries.
  EXPECT_TRUE(obs::registry().snapshot("stats-proxy").empty());
}

TEST(Proxy, RemoteControlErrorsPropagate) {
  filters::register_builtin_filters();
  World w;
  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();
  core::ControlManager manager(
      network_control_transport(w.net, w.sender, proxy.control_address()));
  EXPECT_THROW(manager.insert({"no-such", {}}, 0), core::ControlError);
  EXPECT_THROW(manager.remove(9), core::ControlError);
  proxy.shutdown();
}

TEST(Proxy, ControlTimeoutWhenProxyDown) {
  World w;
  core::ControlManager manager(network_control_transport(
      w.net, w.sender, {w.proxy_node, 4999}, /*timeout_ms=*/50));
  EXPECT_THROW(manager.list_chain(), core::ControlError);
}

TEST(Proxy, UploadedFilterUsableRemotely) {
  World w;
  core::FilterRegistry registry;
  filters::register_builtin_filters(registry);
  Proxy proxy(w.net, w.proxy_node, w.config(), &registry);
  proxy.start();
  core::ControlManager manager(
      network_control_transport(w.net, w.sender, proxy.control_address()));

  // Upload a "third-party" low-bandwidth filter definition, then insert it.
  manager.upload("lowband", {"fec-encode", {{"n", "5"}, {"k", "4"}}});
  manager.insert({"lowband", {}}, 0);
  EXPECT_EQ(manager.list_chain()[0].description, "fec-enc(5,4)");
  proxy.shutdown();
}

// ---------------------------------------------------------------------------
// End to end: audio through an FEC proxy over a lossy WLAN

struct E2eParam {
  double distance_m;
  bool fec;
  double fec_min_rate;  // lower bound on post-FEC delivery
};

class ProxyWlanE2e : public ::testing::TestWithParam<E2eParam> {};

TEST_P(ProxyWlanE2e, DeliveryMatchesModelAndFecRecovers) {
  const auto param = GetParam();
  World w;
  wireless::WirelessLan wlan(w.net, w.proxy_node);
  wlan.add_station(w.mobile, param.distance_m);

  Proxy proxy(w.net, w.proxy_node, w.config());
  proxy.start();
  if (param.fec) {
    proxy.chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
  }

  // The mobile host runs its own receive chain with a permanent decoder.
  auto rx = w.net.open(w.mobile, 5000);
  media::ReceiverLog log(432);
  fec::GroupDecoder decoder(4);

  auto tx = w.net.open(w.sender);
  media::AudioSource audio;
  media::AudioPacketizer packetizer(audio);
  constexpr int kPackets = 3000;

  std::thread receiver([&] {
    for (;;) {
      auto d = rx->recv(500);
      if (!d) break;
      if (fec::looks_like_fec_packet(d->payload)) {
        for (const auto& payload : decoder.add(d->payload)) {
          log.on_packet(media::MediaPacket::parse(payload), d->deliver_at);
        }
      } else {
        log.on_packet(media::MediaPacket::parse(d->payload), d->deliver_at);
      }
    }
    for (const auto& payload : decoder.flush()) {
      log.on_packet(media::MediaPacket::parse(payload), 0);
    }
  });

  for (int i = 0; i < kPackets; ++i) {
    tx->send_to({w.proxy_node, 4000}, packetizer.next().serialize());
    w.clock->advance(20'000);  // 20 ms media cadence (virtual)
    // Pace the producer so the proxy pipeline (real threads) keeps up with
    // the virtual clock and the modeled AP queue reflects steady state.
    if (i % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  receiver.join();
  proxy.shutdown();

  const double modeled_loss = wlan.downlink_loss(w.mobile);
  const double rate = log.delivery_rate();
  if (!param.fec) {
    // Raw delivery tracks 1 - loss within statistical noise.
    EXPECT_NEAR(rate, 1.0 - modeled_loss, 0.02);
  } else {
    EXPECT_GT(rate, param.fec_min_rate);
    EXPECT_GT(rate, 1.0 - modeled_loss);  // strictly better than raw
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistanceSweep, ProxyWlanE2e,
    ::testing::Values(E2eParam{25.0, false, 0}, E2eParam{25.0, true, 0.995},
                      E2eParam{35.0, false, 0}, E2eParam{35.0, true, 0.97}),
    [](const auto& info) {
      return std::string("d") +
             std::to_string(static_cast<int>(info.param.distance_m)) +
             (info.param.fec ? "_fec" : "_raw");
    });

}  // namespace
}  // namespace rapidware::proxy
