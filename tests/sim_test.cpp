// Tests for the discrete-event simulation core (util::SimClock,
// util::PeriodicTask) and the station-fleet simulation (sim::FleetSim).
//
// The load-bearing property is determinism: same seed, same config ⇒
// byte-identical event ordering and STATS snapshot, every run, on every
// machine. SimDeterminism.PinnedSeedStatsHash pins that contract to a
// constant; it is registered twice in ctest (sim_determinism_a/_b) so a
// nondeterministic regression shows up as two processes disagreeing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/fleet.h"
#include "util/clock.h"

namespace rapidware {
namespace {

using sim::FleetConfig;
using sim::FleetSim;
using util::PeriodicTask;
using util::SimClock;

// ---------------------------------------------------------------------------
// SimClock

TEST(SimClock, StartsAtZeroAndAdvancesOnlyWhenRun) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(clock.pending(), 0u);
  EXPECT_EQ(clock.run_until(1'000'000), 0u);
  EXPECT_EQ(clock.now(), 1'000'000);
}

TEST(SimClock, RunsEventsInTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.schedule_at(300, [&] { order.push_back(3); });
  clock.schedule_at(100, [&] { order.push_back(1); });
  clock.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(clock.run_until(250), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(clock.now(), 250);
  EXPECT_EQ(clock.run_until(300), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClock, EqualTimesRunInScheduleOrder) {
  // The (time, seq) tie-break: simultaneous events fire in the order they
  // were scheduled, which is what makes multi-station ticks reproducible.
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    clock.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  clock.run_until(500);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimClock, CallbackSeesEventTimeNotTarget) {
  SimClock clock;
  util::Micros seen = -1;
  clock.schedule_at(250, [&] {
    seen = clock.now();  // now() is the event's time mid-callback
  });
  clock.run_until(1'000);
  EXPECT_EQ(seen, 250);
  EXPECT_EQ(clock.now(), 1'000);
}

TEST(SimClock, SchedulingFromInsideACallbackRunsSameSweep) {
  SimClock clock;
  std::vector<util::Micros> fired;
  clock.schedule_at(100, [&] {
    fired.push_back(clock.now());
    clock.schedule_after(50, [&] { fired.push_back(clock.now()); });
  });
  EXPECT_EQ(clock.run_until(200), 2u);
  EXPECT_EQ(fired, (std::vector<util::Micros>{100, 150}));
}

TEST(SimClock, PastScheduleClampsToNow) {
  SimClock clock;
  clock.run_until(1'000);
  util::Micros seen = -1;
  clock.schedule_at(10, [&] { seen = clock.now(); });
  EXPECT_EQ(clock.next_event_at(), 1'000);
  clock.run_until(1'000);
  EXPECT_EQ(seen, 1'000);
}

TEST(SimClock, CancelPreventsDelivery) {
  SimClock clock;
  int fired = 0;
  const auto id = clock.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(clock.cancel(id));
  EXPECT_FALSE(clock.cancel(id));  // already gone
  clock.run_until(1'000);
  EXPECT_EQ(fired, 0);
}

TEST(SimClock, StepRunsExactlyOneEvent) {
  SimClock clock;
  int fired = 0;
  clock.schedule_at(10, [&] { ++fired; });
  clock.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(clock.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now(), 10);
  EXPECT_TRUE(clock.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(clock.step());  // queue empty
}

TEST(SimClock, CrossThreadSchedulingIsSafe) {
  // Producers on other threads may schedule while the driving thread runs
  // the queue; every scheduled event must fire exactly once.
  SimClock clock;
  std::atomic<int> fired{0};
  constexpr int kPerThread = 200;
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&clock, &fired, t] {
      for (int i = 0; i < kPerThread; ++i) {
        clock.schedule_at(t * 1'000 + i, [&fired] { ++fired; });
      }
    });
  }
  for (auto& p : producers) p.join();
  clock.run_until(10'000);
  EXPECT_EQ(fired.load(), 4 * kPerThread);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(SimClock, AdvanceAndSetFireDueEventsInOrder) {
  // The open-loop drivers run the queue too: advance() and set() fire what
  // falls due in (time, seq) order, including events a callback schedules
  // inside the same window, and leave later events pending.
  SimClock clock;
  std::vector<std::pair<int, util::Micros>> fired;
  const auto note = [&](int tag) { fired.emplace_back(tag, clock.now()); };
  clock.schedule_at(300, [&] { note(3); });
  clock.schedule_at(100, [&] {
    note(1);
    clock.schedule_after(0, [&] { note(2); });  // same instant, later seq
    clock.schedule_after(150, [&] { note(4); });  // 250: same window
  });
  clock.schedule_at(100, [&] { note(5); });  // ties with 1, scheduled after
  clock.schedule_at(900, [&] { note(9); });
  clock.advance(250);
  EXPECT_EQ(fired, (std::vector<std::pair<int, util::Micros>>{
                       {1, 100}, {5, 100}, {2, 100}, {4, 250}}));
  EXPECT_EQ(clock.now(), 250);
  clock.set(400);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired.back(), (std::pair<int, util::Micros>{3, 300}));
  EXPECT_EQ(clock.now(), 400);
  EXPECT_EQ(clock.pending(), 1u);
  EXPECT_EQ(clock.next_event_at(), 900);
}

TEST(SimClock, SetIntoThePastRunsNothingAndRewinds) {
  SimClock clock;
  int fired = 0;
  clock.schedule_at(1'500, [&] { ++fired; });
  clock.set(1'000);
  EXPECT_EQ(clock.now(), 1'000);
  clock.set(42);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(clock.now(), 42);
  EXPECT_EQ(clock.pending(), 1u);
  clock.set(1'500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now(), 1'500);
}

TEST(PeriodicTask, FiresOnItsCadence) {
  SimClock clock;
  std::vector<util::Micros> fired;
  PeriodicTask task(clock, 1'000,
                    [&](util::Micros at) { fired.push_back(at); });
  clock.run_until(3'500);
  EXPECT_EQ(fired, (std::vector<util::Micros>{1'000, 2'000, 3'000}));
}

TEST(PeriodicTask, TicksOnCadenceUnderAdvance) {
  // Open-loop tests move time in media-sized steps with advance() alone;
  // a task on the same clock must tick at its own instants regardless,
  // several times within one long step.
  SimClock clock;
  std::vector<util::Micros> fired;
  PeriodicTask task(clock, 1'000,
                    [&](util::Micros at) { fired.push_back(at); });
  for (int i = 0; i < 5; ++i) clock.advance(300);  // 1 500: one tick
  EXPECT_EQ(fired, (std::vector<util::Micros>{1'000}));
  clock.advance(2'600);  // 4 100: three more
  EXPECT_EQ(fired,
            (std::vector<util::Micros>{1'000, 2'000, 3'000, 4'000}));
  EXPECT_EQ(clock.now(), 4'100);
}

TEST(PeriodicTask, StopFromInsideCallbackAndFromOutside) {
  SimClock clock;
  int fired = 0;
  PeriodicTask task(clock, 100, [&](util::Micros) {
    if (++fired == 3) task.stop();
  });
  clock.run_until(10'000);
  EXPECT_EQ(fired, 3);

  int fired2 = 0;
  {
    PeriodicTask t2(clock, 100, [&](util::Micros) { ++fired2; });
    clock.run_for(250);
  }  // destructor stops it
  clock.run_for(1'000);
  EXPECT_EQ(fired2, 2);
}

// ---------------------------------------------------------------------------
// FleetSim (small scale; the 10k-station sweep lives in bench_sim_scale and
// the CI sim-determinism job)

FleetConfig small_config() {
  FleetConfig c;
  c.stations = 50;
  c.seed = 0x5eedf1eeULL;
  c.packet_rate_hz = 50;
  c.mobile_fraction = 0.5;
  c.stagger_s = 60;
  return c;
}

TEST(FleetSim, RunsAndDeliversTraffic) {
  SimClock clock;
  FleetSim fleet(clock, small_config());
  fleet.run_for(util::seconds_to_micros(60));
  EXPECT_EQ(fleet.ticks(), 60u);  // one control tick per virtual second
  EXPECT_GT(fleet.data_sent(), 0u);
  EXPECT_GT(fleet.data_delivered(), 0u);
  EXPECT_LE(fleet.data_delivered(), fleet.data_sent());
  EXPECT_GT(fleet.received_rate(), 0.9);
}

TEST(FleetSim, SameSeedSameStatsTwice) {
  const auto run = [] {
    SimClock clock;
    FleetSim fleet(clock, small_config());
    fleet.run_for(util::seconds_to_micros(120));
    return fleet.stats_text();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b) << "same seed must reproduce the STATS snapshot exactly";
  EXPECT_NE(a.find("fleet/summary/data_sent="), std::string::npos);
}

TEST(FleetSim, DifferentSeedsDiverge) {
  const auto run = [](std::uint64_t seed) {
    SimClock clock;
    FleetConfig c = small_config();
    c.seed = seed;
    FleetSim fleet(clock, c);
    fleet.run_for(util::seconds_to_micros(60));
    return fleet.stats_text();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(FleetSim, ControllerLiftsRecoveryOnLossyStations) {
  // The paper's Figure-7 shape at test scale: push every station out to a
  // lossy distance and compare delivered fractions with the controller off
  // vs on. Off rides the raw channel; on must recover nearly everything.
  struct Outcome {
    std::uint64_t inserts;
    std::size_t active;
    std::size_t stations;
    double received;
    double overhead;
  };
  const auto run = [](bool controller) {
    SimClock clock;
    FleetConfig c;
    c.stations = 40;
    c.seed = 0xf19a7eULL;
    c.base_distance_m = 25;  // the paper's point: ~1.46% raw loss, bursty
    c.controller_enabled = controller;
    FleetSim fleet(clock, c);
    fleet.run_for(util::seconds_to_micros(300));
    return Outcome{fleet.inserts(), fleet.active_fec_stations(),
                   fleet.config().stations, fleet.received_rate(),
                   fleet.fec_overhead()};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.inserts, 0u);
  EXPECT_GT(on.inserts, 0u);
  EXPECT_EQ(on.active, on.stations);
  // The paper's Figure-7 numbers: ~98.5% uncontrolled, ≥99.9% adaptive.
  EXPECT_LT(off.received, 0.99);
  EXPECT_GT(off.received, 0.97);
  EXPECT_GT(on.received, 0.999);
  EXPECT_GT(on.overhead, 1.0);
}

TEST(FleetSim, ControllerRemovesFecWhenChannelRecovers) {
  // Mobile stations walk near (clean) and far (lossy); over full cycles the
  // controller must both insert and remove FEC as each station's channel
  // swings, leaving a mixed fleet mid-cycle.
  SimClock clock;
  FleetConfig c;
  c.stations = 20;
  c.seed = 0x0ddba11ULL;
  c.mobile_fraction = 1.0;
  c.near_m = 5;
  c.far_m = 34;
  c.dwell_s = 60;
  c.walk_s = 20;
  c.stagger_s = 120;
  FleetSim fleet(clock, c);
  fleet.run_for(util::seconds_to_micros(600));
  EXPECT_GT(fleet.inserts(), 0u);
  EXPECT_GT(fleet.removes(), 0u);
  EXPECT_LT(fleet.active_fec_stations(), fleet.config().stations);
}

TEST(FleetSim, SnapshotAccountingIsConsistentMidGroup) {
  // Stopping at an instant that is mid-FEC-group for most stations must
  // still satisfy delivered ≤ sent and match the per-station sums.
  SimClock clock;
  FleetConfig c = small_config();
  c.stations = 10;
  FleetSim fleet(clock, c);
  fleet.run_for(util::seconds_to_micros(7) + 137);  // deliberately ragged
  const auto snap = fleet.stats_snapshot();
  std::uint64_t sent = 0, delivered = 0;
  for (const auto& e : snap) {
    if (e.name.find("/data_sent") != std::string::npos &&
        e.name.find("station") != std::string::npos) {
      sent += static_cast<std::uint64_t>(std::stoull(e.value));
    }
    if (e.name.find("/data_delivered") != std::string::npos &&
        e.name.find("station") != std::string::npos) {
      delivered += static_cast<std::uint64_t>(std::stoull(e.value));
    }
  }
  EXPECT_EQ(sent, fleet.data_sent());
  EXPECT_EQ(delivered, fleet.data_delivered());
  EXPECT_LE(delivered, sent);
}

// ---------------------------------------------------------------------------
// Flow classification (config.classify_flows)

TEST(FleetSim, ClassifiesStationsAcrossThreeRegimes) {
  // Mobile stations cycle 5 m <-> 45 m: ~0.1% loss at the near dwell
  // (clean), a walk through the 2-15% band (degraded), ~22% at the far
  // dwell (severe). Staggered departures keep the fleet spread across all
  // three regimes, which is what per-flow chain selection exists for.
  SimClock clock;
  FleetConfig c;
  c.stations = 60;
  c.seed = 0x0c1a55ULL;
  c.mobile_fraction = 0.5;
  c.far_m = 45.0;
  c.dwell_s = 20;
  c.walk_s = 20;
  c.stagger_s = 40;
  c.classify_flows = true;
  FleetSim fleet(clock, c);

  std::size_t clean = 0, degraded = 0, severe = 0;
  for (int chunk = 0; chunk < 24; ++chunk) {  // 120 virtual seconds
    fleet.run_for(util::seconds_to_micros(5));
    clean = std::max(clean,
                     fleet.stations_in_regime(core::LossRegime::kClean));
    degraded = std::max(
        degraded, fleet.stations_in_regime(core::LossRegime::kDegraded));
    severe = std::max(severe,
                      fleet.stations_in_regime(core::LossRegime::kSevere));
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(severe, 0u);
  // Every station classified at least once; regime changes re-key flows.
  EXPECT_GE(fleet.reclassifications(), c.stations);

  // Flyweight at fleet scale: 60 flows, at most 3 rule specs (the default
  // table covers every regime, so the fallback is never resolved).
  std::set<const core::ChainSpec*> specs;
  for (std::size_t i = 0; i < c.stations; ++i) {
    ASSERT_NE(fleet.station_spec(i), nullptr) << "station " << i;
    specs.insert(fleet.station_spec(i).get());
  }
  EXPECT_LE(specs.size(), 3u);

  // Classifier stats are present and the snapshot stays name-sorted (the
  // pre-sorted-emission contract the new entries must not break).
  const auto snapshot = fleet.stats_snapshot();
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  const std::string text = fleet.stats_text();
  EXPECT_NE(text.find("fleet/classifier/specs="), std::string::npos);
  EXPECT_NE(text.find("fleet/classifier/rule/severe-fec/hits="),
            std::string::npos);
  // Per-station regime lines exist (which regime each station occupies at
  // the final instant is walk-phase dependent; coverage of all three is
  // asserted over time above).
  EXPECT_NE(text.find("/regime="), std::string::npos);
}

TEST(FleetSim, DefaultConfigEmitsNoClassifierEntries) {
  // The opt-out half of the contract: a default-config fleet renders
  // byte-identically to a pre-classifier fleet, which is what keeps the
  // pinned determinism hash below valid.
  SimClock clock;
  FleetSim fleet(clock, small_config());
  fleet.run_for(util::seconds_to_micros(10));
  const std::string text = fleet.stats_text();
  EXPECT_EQ(text.find("classifier"), std::string::npos);
  EXPECT_EQ(text.find("regime"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pinned determinism contract

// FNV-1a, the repo-wide convention for pinning byte streams in tests.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SimDeterminism, PinnedSeedStatsHash) {
  // Two in-process runs must agree with each other AND with the pinned
  // constant. If an intentional simulation change shifts the hash, re-pin:
  //   ./build/tests/sim_test --gtest_filter=SimDeterminism.*
  // prints the new value below; update kPinned with it. An UNINTENTIONAL
  // shift means the simulation is no longer a pure function of its seed —
  // that is the bug this test exists to catch.
  const auto run = [] {
    SimClock clock;
    FleetConfig c;
    c.stations = 200;
    c.seed = 0x00c0ffeeULL;
    c.mobile_fraction = 0.25;
    c.stagger_s = 300;
    FleetSim fleet(clock, c);
    fleet.run_for(util::seconds_to_micros(180));
    return fleet.stats_text();
  };
  const std::string a = run();
  const std::string b = run();
  ASSERT_EQ(a, b) << "two same-seed runs diverged in one process";

  constexpr std::uint64_t kPinned = 0x3e3cef292306b476ULL;
  EXPECT_EQ(fnv1a(a), kPinned)
      << "stats hash moved: 0x" << std::hex << fnv1a(a)
      << " — if the simulation changed intentionally, re-pin kPinned; "
         "otherwise determinism broke";
}

TEST(SimDeterminism, PinnedSeedClassifierStatsHash) {
  // Same contract with flow classification ON: regime derivation, rule
  // resolution, and the classifier stats entries must all be pure functions
  // of the seed (the classifier runs unbound, so resolve() never touches a
  // wall clock). Re-pin exactly as above if the change is intentional.
  const auto run = [] {
    SimClock clock;
    FleetConfig c;
    c.stations = 200;
    c.seed = 0x00c0ffeeULL;
    c.mobile_fraction = 0.25;
    c.far_m = 45.0;
    c.stagger_s = 300;
    c.classify_flows = true;
    FleetSim fleet(clock, c);
    fleet.run_for(util::seconds_to_micros(180));
    return fleet.stats_text();
  };
  const std::string a = run();
  const std::string b = run();
  ASSERT_EQ(a, b) << "two same-seed classifier runs diverged in one process";

  constexpr std::uint64_t kPinned = 0x4df038e3f4c68e09ULL;
  EXPECT_EQ(fnv1a(a), kPinned)
      << "classifier stats hash moved: 0x" << std::hex << fnv1a(a)
      << " — if the simulation changed intentionally, re-pin kPinned; "
         "otherwise determinism broke";
}

}  // namespace
}  // namespace rapidware
