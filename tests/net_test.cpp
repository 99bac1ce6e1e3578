// Tests for the network substrate: loss models, channel models, and the
// SimNetwork datagram fabric (unicast, multicast, blocking receive).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "net/link.h"
#include "net/loss.h"
#include "net/sim_network.h"
#include "util/stats.h"

namespace rapidware::net {
namespace {

using util::Bytes;
using util::Rng;
using util::to_bytes;
using util::to_string;

// ---------------------------------------------------------------------------
// Loss models

TEST(LossModels, PerfectChannelNeverDrops) {
  PerfectChannel loss;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(loss.drop(rng));
  EXPECT_EQ(loss.average_loss(), 0.0);
}

TEST(LossModels, BernoulliMatchesRate) {
  BernoulliLoss loss(0.2);
  Rng rng(2);
  int drops = 0;
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) drops += loss.drop(rng);
  EXPECT_NEAR(static_cast<double>(drops) / trials, 0.2, 0.01);
  EXPECT_DOUBLE_EQ(loss.average_loss(), 0.2);
}

TEST(LossModels, BernoulliRejectsBadProbability) {
  EXPECT_THROW(BernoulliLoss(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliLoss(1.1), std::invalid_argument);
}

TEST(LossModels, BernoulliRetunes) {
  BernoulliLoss loss(0.0);
  loss.set_average_loss(1.0);
  Rng rng(3);
  EXPECT_TRUE(loss.drop(rng));
}

TEST(LossModels, GilbertElliottAverageMatchesTarget) {
  for (const double target : {0.01, 0.05, 0.2}) {
    auto loss = GilbertElliottLoss::with_average(target, 4.0, 0.75);
    EXPECT_NEAR(loss->average_loss(), target, 1e-9);
    Rng rng(4);
    int drops = 0;
    const int trials = 400'000;
    for (int i = 0; i < trials; ++i) drops += loss->drop(rng);
    EXPECT_NEAR(static_cast<double>(drops) / trials, target, target * 0.25)
        << "target " << target;
  }
}

TEST(LossModels, GilbertElliottProducesBursts) {
  // At equal average loss, GE must produce longer loss runs than Bernoulli.
  const double target = 0.1;
  auto ge = GilbertElliottLoss::with_average(target, 8.0, 0.9);
  BernoulliLoss bernoulli(target);
  Rng rng_a(5), rng_b(5);

  auto mean_run = [](auto& model, Rng& rng) {
    int runs = 0, losses = 0;
    bool in_run = false;
    for (int i = 0; i < 200'000; ++i) {
      const bool d = model.drop(rng);
      losses += d;
      if (d && !in_run) ++runs;
      in_run = d;
    }
    return runs == 0 ? 0.0 : static_cast<double>(losses) / runs;
  };
  const double ge_run = mean_run(*ge, rng_a);
  const double be_run = mean_run(bernoulli, rng_b);
  EXPECT_GT(ge_run, be_run * 1.5);
}

TEST(LossModels, GilbertElliottRetuneChangesRate) {
  auto loss = GilbertElliottLoss::with_average(0.01);
  loss->set_average_loss(0.3);
  EXPECT_NEAR(loss->average_loss(), 0.3, 1e-9);
}

TEST(LossModels, TraceReplaysExactly) {
  TraceLoss loss({true, false, false, true});
  Rng rng(6);
  EXPECT_TRUE(loss.drop(rng));
  EXPECT_FALSE(loss.drop(rng));
  EXPECT_FALSE(loss.drop(rng));
  EXPECT_TRUE(loss.drop(rng));
  EXPECT_TRUE(loss.drop(rng));  // loops
  EXPECT_DOUBLE_EQ(loss.average_loss(), 0.5);
}

TEST(LossModels, EmptyTraceThrows) {
  EXPECT_THROW(TraceLoss({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Channel

TEST(Channel, AppliesLatencyAndSerialization) {
  ChannelConfig config;
  config.latency_us = 1000;
  config.bandwidth_bps = 1'000'000;  // 1 Mbps -> 8 us per byte
  Channel ch(config, Rng(7));

  const auto at = ch.transit(1000, 0);  // 1000 bytes = 8000 us serialization
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, 1000 + 8000);
}

TEST(Channel, QueueingDelaysBackToBackPackets) {
  ChannelConfig config;
  config.bandwidth_bps = 8'000'000;  // 1 us per byte
  Channel ch(config, Rng(8));
  const auto first = ch.transit(1000, 0);
  const auto second = ch.transit(1000, 0);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, 1000);
  EXPECT_EQ(*second, 2000);  // waits for the link
}

TEST(Channel, TailDropsWhenQueueDelayExceeded) {
  ChannelConfig config;
  config.bandwidth_bps = 8'000;  // 1 ms per byte: trivially saturated
  config.max_queue_delay_us = 5'000;
  Channel ch(config, Rng(9));
  int delivered = 0;
  for (int i = 0; i < 100; ++i) delivered += ch.transit(100, 0).has_value();
  EXPECT_LT(delivered, 100);
  EXPECT_GT(ch.stats().dropped_queue, 0u);
}

TEST(Channel, InfiniteBandwidthIsInstant) {
  Channel ch(ChannelConfig{}, Rng(10));
  EXPECT_EQ(*ch.transit(1'000'000, 42), 42);
}

TEST(Channel, LossCountsInStats) {
  ChannelConfig config;
  config.loss = std::make_shared<BernoulliLoss>(1.0);
  Channel ch(config, Rng(11));
  EXPECT_FALSE(ch.transit(10, 0).has_value());
  EXPECT_EQ(ch.stats().dropped_loss, 1u);
  EXPECT_EQ(ch.stats().delivered(), 0u);
}

// ---------------------------------------------------------------------------
// SimNetwork

struct NetFixture {
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  SimNetwork net{clock, 42};
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  NodeId c = net.add_node("c");
};

TEST(SimNetwork, UnicastDelivery) {
  NetFixture f;
  auto sa = f.net.open(f.a, 100);
  auto sb = f.net.open(f.b, 200);
  sa->send_to({f.b, 200}, to_bytes("hello"));
  const auto d = sb->recv(1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(to_string(d->payload), "hello");
  EXPECT_EQ(d->src, (Address{f.a, 100}));
  EXPECT_EQ(sb->packets_received(), 1u);
}

TEST(SimNetwork, UnicastPayloadIsACopyOfTheSendersBuffer) {
  NetFixture f;
  auto sa = f.net.open(f.a, 100);
  auto sb = f.net.open(f.b, 200);
  Bytes buf = to_bytes("original");
  sa->send_to({f.b, 200}, buf);
  std::fill(buf.begin(), buf.end(), std::uint8_t{'x'});  // sender reuses it
  const auto d = sb->recv(1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(to_string(d->payload), "original");
}

TEST(SimNetwork, MulticastPayloadIsACopyOfTheSendersBuffer) {
  NetFixture f;
  const Address group = multicast_group(4, 500);
  auto sa = f.net.open(f.a);
  auto sb = f.net.open(f.b);
  auto sc = f.net.open(f.c);
  sb->join(group);
  sc->join(group);
  Bytes buf = to_bytes("original");
  sa->send_to(group, buf);
  std::fill(buf.begin(), buf.end(), std::uint8_t{'x'});
  auto db = sb->recv(1000);
  auto dc = sc->recv(1000);
  ASSERT_TRUE(db.has_value());
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(to_string(db->payload), "original");
  EXPECT_EQ(to_string(dc->payload), "original");
  // Each member owns its copy: one receiver's edits never reach the other.
  db->payload[0] = 'y';
  EXPECT_EQ(to_string(dc->payload), "original");
}

TEST(SimNetwork, UnknownDestinationIsDropped) {
  NetFixture f;
  auto sa = f.net.open(f.a);
  sa->send_to({f.b, 999}, to_bytes("void"));
  EXPECT_EQ(f.net.datagrams_routed(), 1u);  // routed but nobody bound
}

TEST(SimNetwork, RecvTimesOut) {
  NetFixture f;
  auto sb = f.net.open(f.b, 1);
  EXPECT_FALSE(sb->recv(10).has_value());
}

TEST(SimNetwork, RecvBlocksUntilArrival) {
  NetFixture f;
  auto sa = f.net.open(f.a, 1);
  auto sb = f.net.open(f.b, 2);
  // The tiny sleep makes "receiver already blocked" the common interleaving;
  // if the send wins the race anyway, recv(-1) finds the queued datagram and
  // the assertion is unchanged — no timing dependence in the verdict.
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sa->send_to({f.b, 2}, to_bytes("late"));
  });
  const auto d = sb->recv(-1);
  sender.join();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(to_string(d->payload), "late");
}

TEST(SimNetwork, CloseUnblocksReceiver) {
  NetFixture f;
  auto sb = f.net.open(f.b, 2);
  // Same race-tolerant shape as above: close-before-recv and
  // close-during-recv both legitimately yield nullopt.
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sb->close();
  });
  EXPECT_FALSE(sb->recv(-1).has_value());
  closer.join();
}

TEST(SimNetwork, SendOnClosedSocketThrows) {
  NetFixture f;
  auto sa = f.net.open(f.a, 1);
  sa->close();
  EXPECT_THROW(sa->send_to({f.b, 1}, to_bytes("x")), std::runtime_error);
}

TEST(SimNetwork, PortConflictThrows) {
  NetFixture f;
  auto s1 = f.net.open(f.a, 7);
  EXPECT_THROW(f.net.open(f.a, 7), std::invalid_argument);
  s1->close();
  EXPECT_NO_THROW(f.net.open(f.a, 7));  // freed after close
}

TEST(SimNetwork, EphemeralPortsAreDistinct) {
  NetFixture f;
  auto s1 = f.net.open(f.a);
  auto s2 = f.net.open(f.a);
  EXPECT_NE(s1->local().port, s2->local().port);
}

TEST(SimNetwork, UnknownNodeThrows) {
  NetFixture f;
  EXPECT_THROW(f.net.open(999), std::invalid_argument);
}

TEST(SimNetwork, MulticastReachesAllMembersExceptSender) {
  NetFixture f;
  const Address group = multicast_group(1, 500);
  auto sa = f.net.open(f.a);
  auto sb = f.net.open(f.b);
  auto sc = f.net.open(f.c);
  sa->join(group);
  sb->join(group);
  sc->join(group);

  sa->send_to(group, to_bytes("mc"));
  EXPECT_TRUE(sb->recv(1000).has_value());
  EXPECT_TRUE(sc->recv(1000).has_value());
  EXPECT_FALSE(sa->recv(10).has_value());  // no loopback
}

TEST(SimNetwork, LeaveStopsDelivery) {
  NetFixture f;
  const Address group = multicast_group(2, 500);
  auto sa = f.net.open(f.a);
  auto sb = f.net.open(f.b);
  sb->join(group);
  sb->leave(group);
  sa->send_to(group, to_bytes("gone"));
  EXPECT_FALSE(sb->recv(10).has_value());
}

TEST(SimNetwork, JoiningUnicastAddressThrows) {
  NetFixture f;
  auto sa = f.net.open(f.a);
  EXPECT_THROW(sa->join({f.b, 5}), std::invalid_argument);
}

TEST(SimNetwork, ChannelLossAppliesPerLink) {
  NetFixture f;
  ChannelConfig lossy;
  lossy.loss = std::make_shared<BernoulliLoss>(1.0);
  f.net.set_channel(f.a, f.b, std::move(lossy));

  const Address group = multicast_group(3, 500);
  auto sa = f.net.open(f.a);
  auto sb = f.net.open(f.b);
  auto sc = f.net.open(f.c);
  sb->join(group);
  sc->join(group);
  sa->send_to(group, to_bytes("selective"));
  EXPECT_FALSE(sb->recv(10).has_value());  // a->b drops everything
  EXPECT_TRUE(sc->recv(1000).has_value());  // a->c clean
}

TEST(SimNetwork, ModeledTimestampsUseChannel) {
  NetFixture f;
  ChannelConfig slow;
  slow.latency_us = 5'000;
  f.net.set_channel(f.a, f.b, std::move(slow));
  f.clock->set(1'000'000);

  auto sa = f.net.open(f.a, 1);
  auto sb = f.net.open(f.b, 2);
  sa->send_to({f.b, 2}, to_bytes("t"));
  const auto d = sb->recv(1000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sent_at, 1'000'000);
  EXPECT_EQ(d->deliver_at, 1'005'000);
}

TEST(SimNetwork, ManyToOneConcurrentSendersAllDeliver) {
  NetFixture f;
  auto sink = f.net.open(f.c, 9);
  constexpr int kSenders = 8, kEach = 200;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      auto sock = f.net.open(s % 2 == 0 ? f.a : f.b);
      for (int i = 0; i < kEach; ++i) {
        sock->send_to({f.c, 9}, to_bytes(std::to_string(s)));
      }
    });
  }
  for (auto& t : threads) t.join();
  int got = 0;
  while (sink->recv(10).has_value()) ++got;
  EXPECT_EQ(got, kSenders * kEach);
}

TEST(AddressFormatting, RendersBothKinds) {
  EXPECT_EQ((Address{3, 80}).to_string(), "n3:80");
  EXPECT_EQ(multicast_group(7, 90).to_string(), "mc7:90");
}

// Regression: node_name() used to return a const reference into the
// internal names vector. A concurrent add_node() reallocating that vector
// left the caller reading freed memory the moment the mutex dropped. The
// accessor now returns a copy made under the lock; this hammers the old
// failure schedule (readers racing growth) — under ASan the reference
// version fails here.
TEST(SimNetwork, NodeNameIsStableUnderConcurrentAddNode) {
  SimNetwork net;
  const NodeId first = net.add_node("node-0");

  std::thread grower([&] {
    for (int i = 1; i <= 512; ++i) {
      net.add_node("node-" + std::to_string(i));
    }
  });
  for (int i = 0; i < 4'000; ++i) {
    EXPECT_EQ(net.node_name(first), "node-0");
  }
  grower.join();
  EXPECT_EQ(net.node_name(511), "node-511");
}

}  // namespace
}  // namespace rapidware::net
