// Tests for the FEC decision core (raplets::FecPolicy) and the closed-loop
// controller (raplets::AdaptiveFecController) driving a live FilterChain
// through the control path on virtual time.
//
// The controller properties the fleet simulation leans on are proved here
// at chain scale:
//   (a) loss above threshold  ⇒ FEC inserted within a bounded number of
//       virtual ticks;
//   (b) recovery              ⇒ FEC removed within a bounded number of ticks;
//   (c) no reconfiguration ever drops, duplicates, reorders, or corrupts a
//       packet (sequence-stamped oracle across live insert/retune/remove).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/control.h"
#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "filters/registry.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "proxy/proxy.h"
#include "raplets/fec_controller.h"
#include "raplets/fec_policy.h"
#include "testing/sequence_stream.h"
#include "util/clock.h"

namespace rapidware::raplets {
namespace {

constexpr util::Micros kSecond = 1'000'000;

// ---------------------------------------------------------------------------
// FecPolicy: the pure decision core

TEST(FecPolicy, RejectsBadConfig) {
  FecPolicyConfig c;
  c.remove_threshold = c.insert_threshold + 0.1;  // hysteresis inverted
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);

  c = {};
  c.alpha = 0.0;
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);
  c.alpha = 1.5;
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);

  c = {};
  c.rungs.clear();
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);

  c = {};
  c.rungs = {{0.0, 4, 4}};  // n must exceed k
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);

  c = {};
  c.rungs = {{0.0, 6, 4}, {0.05, 4, 2}, {0.04, 2, 1}};  // not ascending
  EXPECT_THROW(FecPolicy{c}, std::invalid_argument);
}

TEST(FecPolicy, FirstSamplePrimesTheEwma) {
  FecPolicyConfig c;
  c.cooldown_us = 0;
  FecPolicy policy(c);
  // Unprimed: the first sample becomes the estimate directly, so a fresh
  // policy facing a lossy link reacts on its very first update.
  const auto d = policy.update(kSecond, 0.08);
  EXPECT_EQ(d.action, FecPolicy::Action::kInsert);
  EXPECT_DOUBLE_EQ(d.smoothed, 0.08);
  EXPECT_EQ(d.n, 4u);  // 0.08 ≥ 0.05 rung
  EXPECT_EQ(d.k, 2u);
}

TEST(FecPolicy, ClimbsAndDescendsTheLadder) {
  FecPolicyConfig c;
  c.alpha = 1.0;  // no smoothing: the ladder logic in isolation
  c.cooldown_us = 0;
  FecPolicy policy(c);

  auto d = policy.update(1 * kSecond, 0.02);
  EXPECT_EQ(d.action, FecPolicy::Action::kInsert);
  EXPECT_EQ(d.n, 6u);
  EXPECT_EQ(d.k, 4u);

  d = policy.update(2 * kSecond, 0.20);  // top rung
  EXPECT_EQ(d.action, FecPolicy::Action::kRetune);
  EXPECT_EQ(d.n, 2u);
  EXPECT_EQ(d.k, 1u);

  d = policy.update(3 * kSecond, 0.06);  // back down one rung
  EXPECT_EQ(d.action, FecPolicy::Action::kRetune);
  EXPECT_EQ(d.n, 4u);
  EXPECT_EQ(d.k, 2u);

  d = policy.update(4 * kSecond, 0.06);  // steady: nothing to do
  EXPECT_EQ(d.action, FecPolicy::Action::kNone);

  d = policy.update(5 * kSecond, 0.001);  // below remove_threshold
  EXPECT_EQ(d.action, FecPolicy::Action::kRemove);
  EXPECT_FALSE(policy.active());
}

TEST(FecPolicy, HysteresisBandHoldsFec) {
  FecPolicyConfig c;
  c.alpha = 1.0;
  c.cooldown_us = 0;
  FecPolicy policy(c);
  EXPECT_EQ(policy.update(1 * kSecond, 0.02).action,
            FecPolicy::Action::kInsert);
  // In the band (remove 0.002 < loss < insert 0.01): keep FEC on — this is
  // exactly the Gilbert-Elliott lull that must not cause flapping.
  EXPECT_EQ(policy.update(2 * kSecond, 0.005).action,
            FecPolicy::Action::kNone);
  EXPECT_TRUE(policy.active());
  // And from the off state the same value must not switch FEC on.
  FecPolicy fresh(c);
  EXPECT_EQ(fresh.update(1 * kSecond, 0.005).action,
            FecPolicy::Action::kNone);
  EXPECT_FALSE(fresh.active());
}

TEST(FecPolicy, CooldownDefersActions) {
  FecPolicyConfig c;
  c.alpha = 1.0;
  c.cooldown_us = 2 * kSecond;
  FecPolicy policy(c);
  EXPECT_EQ(policy.update(1 * kSecond, 0.02).action,
            FecPolicy::Action::kInsert);
  // A retune-worthy jump inside the cooldown window is deferred...
  EXPECT_EQ(policy.update(1 * kSecond + 500'000, 0.30).action,
            FecPolicy::Action::kNone);
  // ...and executed once the window has passed (EWMA kept integrating).
  const auto d = policy.update(3 * kSecond + 1, 0.30);
  EXPECT_EQ(d.action, FecPolicy::Action::kRetune);
  EXPECT_EQ(d.n, 2u);
}

// ---------------------------------------------------------------------------
// AdaptiveFecController against a live chain

struct ChainWorld {
  std::shared_ptr<core::QueuePacketSource> source =
      std::make_shared<core::QueuePacketSource>();
  std::shared_ptr<core::CollectingPacketSink> sink =
      std::make_shared<core::CollectingPacketSink>();
  std::shared_ptr<core::FilterChain> chain;
  std::shared_ptr<core::ControlServer> server;

  ChainWorld() {
    filters::register_builtin_filters();
    chain = std::make_shared<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("in", source),
        std::make_shared<core::PacketWriterEndpoint>("out", sink));
    server = std::make_shared<core::ControlServer>(chain);
    chain->start();
  }
  ~ChainWorld() { chain->shutdown(); }

  core::ControlManager manager() { return core::ControlManager::local(server); }

  std::vector<std::string> names() {
    std::vector<std::string> out;
    for (const auto& info : manager().list_chain()) out.push_back(info.name);
    return out;
  }
};

TEST(AdaptiveFecController, RejectsBadFlowsAndConfig) {
  AdaptiveFecControllerConfig bad;
  bad.interleave_rows = 2;  // depth missing
  EXPECT_THROW(AdaptiveFecController{bad}, std::invalid_argument);

  ChainWorld w;
  AdaptiveFecController ctl;
  EXPECT_THROW(ctl.add_flow({"", w.manager(), std::nullopt, [] { return 0.0; }}),
               std::invalid_argument);
  EXPECT_THROW(ctl.add_flow({"f", w.manager(), std::nullopt, nullptr}),
               std::invalid_argument);
  ctl.add_flow({"f", w.manager(), std::nullopt, [] { return 0.0; }});
  EXPECT_THROW(ctl.add_flow({"f", w.manager(), std::nullopt, [] { return 0.0; }}),
               std::invalid_argument);
  EXPECT_EQ(ctl.flows(), 1u);
  EXPECT_THROW(ctl.fec_active("ghost"), std::invalid_argument);
}

// Property (a): once the probe reports loss above the insert threshold, the
// encoder appears in the chain within a bounded number of virtual ticks —
// here two (one to move the EWMA over the threshold, one slack).
TEST(AdaptiveFecController, LossAboveThresholdInsertsWithinBoundedTicks) {
  ChainWorld w;
  double loss = 0.0;
  AdaptiveFecController ctl;
  ctl.add_flow({"egress", w.manager(), std::nullopt, [&] { return loss; }});

  util::SimClock clock;
  util::PeriodicTask ticker(clock, kSecond,
                            [&](util::Micros now) { ctl.tick(now); });

  clock.run_for(5 * kSecond);  // clean link: nothing happens
  EXPECT_FALSE(ctl.fec_active("egress"));
  EXPECT_TRUE(w.names().empty());

  loss = 0.08;  // the station walked out to ~33 m
  int ticks_to_insert = 0;
  while (!ctl.fec_active("egress") && ticks_to_insert < 10) {
    clock.run_for(kSecond);
    ++ticks_to_insert;
  }
  EXPECT_LE(ticks_to_insert, 2);
  EXPECT_EQ(w.names(), (std::vector<std::string>{"fec-encode"}));
  EXPECT_GT(ctl.smoothed_loss("egress"), 0.0);
}

// Property (b): when the probe reports recovery, the EWMA decays below the
// remove threshold and every controller-owned filter leaves the chain within
// a bounded number of ticks (EWMA half-life + cooldown, ≤ 20 s here).
TEST(AdaptiveFecController, RecoveryRemovesFecWithinBoundedTicks) {
  ChainWorld w;
  double loss = 0.08;
  AdaptiveFecController ctl;
  ctl.add_flow({"egress", w.manager(), std::nullopt, [&] { return loss; }});

  util::SimClock clock;
  util::PeriodicTask ticker(clock, kSecond,
                            [&](util::Micros now) { ctl.tick(now); });
  clock.run_for(3 * kSecond);
  ASSERT_TRUE(ctl.fec_active("egress"));

  loss = 0.0;  // back in the office
  int ticks_to_remove = 0;
  while (ctl.fec_active("egress") && ticks_to_remove < 30) {
    clock.run_for(kSecond);
    ++ticks_to_remove;
  }
  EXPECT_LE(ticks_to_remove, 20);
  EXPECT_TRUE(w.names().empty()) << "controller must remove what it inserted";
}

TEST(AdaptiveFecController, EscalationRetunesInPlace) {
  ChainWorld w;
  double loss = 0.02;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.policy.alpha = 1.0;
  AdaptiveFecController ctl(config);
  ctl.add_flow({"egress", w.manager(), std::nullopt, [&] { return loss; }});

  ctl.tick(1 * kSecond);
  auto infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].params.at("n"), "6");
  EXPECT_EQ(infos[0].params.at("k"), "4");

  loss = 0.30;  // edge of association: full duplication
  ctl.tick(2 * kSecond);
  infos = w.manager().list_chain();
  ASSERT_EQ(infos.size(), 1u) << "retune must not stack a second encoder";
  EXPECT_EQ(infos[0].params.at("n"), "2");
  EXPECT_EQ(infos[0].params.at("k"), "1");
}

TEST(AdaptiveFecController, InterleaverRidesAlongWithTheEncoder) {
  ChainWorld w;
  double loss = 0.0;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.interleave_rows = 2;
  config.interleave_depth = 2;
  // One chain plays both roles: encoder stages in front, decoder stages
  // behind, exactly as the loopback EXPERIMENTS topology wires it.
  AdaptiveFecController ctl(config);
  ctl.add_flow({"loop", w.manager(), w.manager(), [&] { return loss; }});

  loss = 0.04;
  ctl.tick(1 * kSecond);
  EXPECT_EQ(w.names(),
            (std::vector<std::string>{"fec-encode", "interleave",
                                      "deinterleave", "fec-decode"}));

  loss = 0.0;
  for (int i = 2; i < 30 && ctl.fec_active("loop"); ++i) {
    ctl.tick(i * kSecond);
  }
  EXPECT_FALSE(ctl.fec_active("loop"));
  EXPECT_TRUE(w.names().empty());
}

// The decoder side lives on a second proxy (the receiver's), reached over
// the network control transport like the encoder side: an insert puts
// fec-decode there and fec-encode on the sender's proxy, a remove takes
// both out.
TEST(AdaptiveFecController, ManagesDecoderSideToo) {
  filters::register_builtin_filters();
  net::SimNetwork net(std::make_shared<util::SimClock>(), 17);
  const auto admin = net.add_node("admin");
  const auto sender_side = net.add_node("proxy");
  const auto receiver_side = net.add_node("mobile");
  proxy::ProxyConfig tx_config;
  tx_config.ingress_port = 4000;
  tx_config.egress_dst = {receiver_side, 5000};
  proxy::Proxy encoder_proxy(net, sender_side, tx_config);
  proxy::ProxyConfig rx_config;
  rx_config.ingress_port = 5000;
  rx_config.egress_dst = {receiver_side, 5001};
  rx_config.control_port = 5999;
  proxy::Proxy decoder_proxy(net, receiver_side, rx_config);
  encoder_proxy.start();
  decoder_proxy.start();
  const auto manager = [&](const proxy::Proxy& px) {
    return core::ControlManager(
        proxy::network_control_transport(net, admin, px.control_address()));
  };

  double loss = 0.08;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.policy.alpha = 1.0;
  AdaptiveFecController ctl(config);
  ctl.add_flow({"mobile", manager(encoder_proxy), manager(decoder_proxy),
                [&] { return loss; }});

  ctl.tick(1 * kSecond);
  EXPECT_TRUE(ctl.fec_active("mobile"));
  auto rx_view = manager(decoder_proxy);
  ASSERT_EQ(rx_view.list_chain().size(), 1u);
  EXPECT_EQ(rx_view.list_chain()[0].name, "fec-decode");
  EXPECT_EQ(manager(encoder_proxy).find("fec-encode"), 0u);

  loss = 0.0;
  ctl.tick(2 * kSecond);
  EXPECT_FALSE(ctl.fec_active("mobile"));
  EXPECT_TRUE(rx_view.list_chain().empty());
  EXPECT_TRUE(manager(encoder_proxy).list_chain().empty());
}

// A control path into `server` that throws on the first INSERT it carries
// while `fail_next_insert` is set: a transport that dies mid-actuation once.
core::ControlManager flaky_manager(std::shared_ptr<core::ControlServer> server,
                                   bool& fail_next_insert) {
  return core::ControlManager([server = std::move(server),
                               &fail_next_insert](util::ByteSpan request) {
    if (fail_next_insert && !request.empty() &&
        request[0] == static_cast<std::uint8_t>(core::ControlOp::kInsert)) {
      fail_next_insert = false;
      throw core::ControlError("transport lost");
    }
    return server->handle(request);
  });
}

// A decision stands only once its actuation succeeded: a failed insert
// leaves the flow inactive, starts no cooldown, and the next tick retries.
TEST(AdaptiveFecController, FailedInsertIsRetriedOnTheNextTick) {
  ChainWorld w;
  obs::Registry registry;
  bool fail_next_insert = true;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 2 * kSecond;
  AdaptiveFecController ctl(config);
  ctl.bind_metrics(obs::Scope(registry, "fec-ctl"));
  ctl.add_flow({"egress", flaky_manager(w.server, fail_next_insert),
                std::nullopt, [] { return 0.08; }});

  EXPECT_EQ(ctl.tick(1 * kSecond), 0u);
  EXPECT_FALSE(ctl.fec_active("egress"));
  EXPECT_TRUE(w.names().empty());
  std::string stats = obs::render(registry.snapshot());
  EXPECT_NE(stats.find("fec-ctl/failures=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("fec-ctl/active_flows=0"), std::string::npos) << stats;

  EXPECT_EQ(ctl.tick(1 * kSecond + 200'000), 1u);
  EXPECT_TRUE(ctl.fec_active("egress"));
  EXPECT_EQ(w.names(), (std::vector<std::string>{"fec-encode"}));
  stats = obs::render(registry.snapshot());
  EXPECT_NE(stats.find("fec-ctl/inserts=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("fec-ctl/active_flows=1"), std::string::npos) << stats;
}

// The decoder-side stages of a failed insert are already in place when the
// encoder side fails; the retry adds only what is missing.
TEST(AdaptiveFecController, RetriedInsertDoesNotStackStages) {
  ChainWorld w;
  bool fail_next_insert = true;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.interleave_rows = 2;
  config.interleave_depth = 2;
  AdaptiveFecController ctl(config);
  // Loopback topology, as in InterleaverRidesAlongWithTheEncoder: only the
  // encoder side's control path fails.
  ctl.add_flow({"loop", flaky_manager(w.server, fail_next_insert), w.manager(),
                [] { return 0.04; }});

  ctl.tick(1 * kSecond);
  EXPECT_FALSE(ctl.fec_active("loop"));
  EXPECT_EQ(w.names(),
            (std::vector<std::string>{"deinterleave", "fec-decode"}));

  ctl.tick(2 * kSecond);
  EXPECT_TRUE(ctl.fec_active("loop"));
  EXPECT_EQ(w.names(),
            (std::vector<std::string>{"fec-encode", "interleave",
                                      "deinterleave", "fec-decode"}));
}

// Property (c): reconfiguration never costs a byte. A sequence-stamped
// packet stream flows while the controller inserts, retunes, and removes a
// full encode/decode pair in the SAME chain (loopback topology); the ledger
// must classify every packet as pristine and in order.
TEST(AdaptiveFecController, ReconfigurationIsPacketExact) {
  const std::uint64_t seed = 0xfec0de'2025ULL;
  constexpr std::uint32_t kPackets = 900;  // 3 phases x 300
  ChainWorld w;

  double loss = 0.0;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.policy.alpha = 1.0;
  AdaptiveFecController ctl(config);
  ctl.add_flow({"loop", w.manager(), w.manager(), [&] { return loss; }});

  util::SimClock clock;
  util::PeriodicTask ticker(clock, kSecond,
                            [&](util::Micros now) { ctl.tick(now); });

  std::uint32_t seq = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) {
      w.source->push(testing::make_stamped_packet(seed, seq++, 120));
    }
  };

  // Mid-phase waits must tolerate a partial FEC group: the encoder holds
  // up to k-1 = 3 data packets until the group fills (next phase's
  // traffic) or the stream ends, and how many packets were already past
  // the insertion point is scheduling-dependent. The final ledger still
  // accounts for every packet exactly.
  constexpr std::size_t kHeld = 3;

  // Phase 1: bare chain, packets mid-flight while the encoder+decoder pair
  // splices in (the decoder passes unframed packets through untouched).
  push(150);
  loss = 0.04;
  clock.run_for(kSecond);  // -> insert fec(6,4)
  ASSERT_TRUE(ctl.fec_active("loop"));
  push(150);
  ASSERT_TRUE(w.sink->wait_for(300 - kHeld)) << "phase 1 stalled";

  // Phase 2: retune 6,4 -> 2,1 with traffic before and after.
  push(150);
  loss = 0.30;
  clock.run_for(kSecond);  // -> retune fec(2,1)
  push(150);
  ASSERT_TRUE(w.sink->wait_for(600 - kHeld)) << "phase 2 stalled";

  // Phase 3: recovery removes both stages under live traffic.
  push(150);
  loss = 0.0;
  for (int i = 0; i < 30 && ctl.fec_active("loop"); ++i) clock.run_for(kSecond);
  ASSERT_FALSE(ctl.fec_active("loop"));
  push(150);
  w.source->finish();
  ASSERT_TRUE(w.sink->wait_for(kPackets)) << "phase 3 stalled";

  testing::PacketLedger ledger(seed, kPackets);
  for (const auto& p : w.sink->packets()) ledger.record(p);
  EXPECT_EQ(ledger.ok(), kPackets);
  EXPECT_EQ(ledger.lost(), 0u);
  EXPECT_EQ(ledger.duplicates(), 0u);
  EXPECT_EQ(ledger.reordered(), 0u);
  EXPECT_EQ(ledger.corrupt(), 0u);
}

TEST(AdaptiveFecController, PublishesMetricsAndTrace) {
  ChainWorld w;
  double loss = 0.0;
  obs::Registry registry;
  AdaptiveFecControllerConfig config;
  config.policy.cooldown_us = 0;
  config.policy.alpha = 1.0;
  AdaptiveFecController ctl(config);
  ctl.bind_metrics(obs::Scope(registry, "fec-ctl"));
  ctl.add_flow({"egress", w.manager(), std::nullopt, [&] { return loss; }});

  loss = 0.02;
  ctl.tick(1 * kSecond);
  loss = 0.30;
  ctl.tick(2 * kSecond);
  loss = 0.0;
  ctl.tick(3 * kSecond);

  const std::string stats = obs::render(registry.snapshot());
  EXPECT_NE(stats.find("fec-ctl/inserts=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("fec-ctl/retunes=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("fec-ctl/removes=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("egress insert fec(6,4)"), std::string::npos) << stats;
}

TEST(AdaptiveFecController, DeltaLossProbeDifferentiatesCounters) {
  std::uint64_t attempted = 1'000;
  std::uint64_t dropped = 15;
  auto probe = AdaptiveFecController::delta_loss_probe(
      [&] { return attempted; }, [&] { return dropped; });
  // First call: lifetime average (the baseline).
  EXPECT_DOUBLE_EQ(probe(), 0.015);
  // Then strict deltas: 50 more attempts, 5 more drops -> 10%.
  attempted += 50;
  dropped += 5;
  EXPECT_DOUBLE_EQ(probe(), 0.1);
  // No traffic in the interval: report clean, not NaN.
  EXPECT_DOUBLE_EQ(probe(), 0.0);
}

}  // namespace
}  // namespace rapidware::raplets
