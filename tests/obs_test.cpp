// Tests for the obs metrics library (src/obs/): metric semantics, registry
// naming/lifetime, the FilterChain binding, and — the part that matters
// under -DRW_SANITIZE=thread — concurrent snapshot readers racing live
// chain reconfiguration schedules via the StressDriver.
//
// Value assertions are gated on RW_OBS_ENABLED so the suite still passes
// (and still exercises registry naming and lifetime) in a -DRW_OBS=OFF
// build, where every mutator is a no-op.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "obs/metrics.h"
#include "obs/stats_log.h"
#include "testing/stress.h"
#include "util/rng.h"

namespace rapidware {
namespace {

std::string find_value(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return e.value;
  }
  return "<missing: " + name + ">";
}

bool has_entry(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Metric semantics

TEST(ObsMetrics, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
#if RW_OBS_ENABLED
  EXPECT_EQ(c.value(), 42u);
#else
  EXPECT_EQ(c.value(), 0u);  // compiled out: mutators are no-ops
#endif
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(10);
  g.add(-3);
#if RW_OBS_ENABLED
  EXPECT_EQ(g.value(), 7);
#endif
}

TEST(ObsMetrics, HistogramBucketsAndPercentiles) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  for (int i = 0; i < 90; ++i) h.observe(5.0);
  for (int i = 0; i < 9; ++i) h.observe(50.0);
  h.observe(5000.0);  // lands in the +inf bucket
#if RW_OBS_ENABLED
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 90 * 5.0 + 9 * 50.0 + 5000.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 100.0);
  // The +inf bucket reports the last finite bound.
  EXPECT_DOUBLE_EQ(h.percentile(99.9), 1000.0);
#endif

  obs::Snapshot snap;
  h.collect("lat", snap);
  EXPECT_TRUE(has_entry(snap, "lat.count"));
  EXPECT_TRUE(has_entry(snap, "lat.sum"));
  EXPECT_TRUE(has_entry(snap, "lat.p50"));
  EXPECT_TRUE(has_entry(snap, "lat.p99"));
  EXPECT_TRUE(has_entry(snap, "lat.le.10"));
  EXPECT_TRUE(has_entry(snap, "lat.le.1000"));
#if RW_OBS_ENABLED
  EXPECT_EQ(find_value(snap, "lat.count"), "100");
  EXPECT_EQ(find_value(snap, "lat.le.10"), "90");    // cumulative
  EXPECT_EQ(find_value(snap, "lat.le.100"), "99");
  EXPECT_EQ(find_value(snap, "lat.le.1000"), "99");
#endif
}

TEST(ObsMetrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsMetrics, TraceRingBoundedAndOrdered) {
  obs::TraceRing ring(3);
  for (int i = 0; i < 5; ++i) ring.record("ev" + std::to_string(i));
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);  // capacity bound
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(events[0].text, "ev2");  // oldest retained
  EXPECT_EQ(events[2].text, "ev4");
  EXPECT_LT(events[0].seq, events[2].seq);  // seqs never reused

  obs::Snapshot snap;
  ring.collect("events", snap);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "events." + std::to_string(events[0].seq));
  EXPECT_NE(snap[0].value.find("ev2"), std::string::npos);
}

TEST(ObsMetrics, FormatValueIntegralVsFractional) {
  EXPECT_EQ(obs::format_value(42.0), "42");
  EXPECT_EQ(obs::format_value(-3.0), "-3");
  EXPECT_EQ(obs::format_value(0.5), "0.5");
}

// ---------------------------------------------------------------------------
// Registry naming, lifetime, rendering

TEST(ObsRegistry, GetOrCreateReusesSameNameAndType) {
  obs::Registry reg;
  auto a = reg.counter("x/hits");
  a->add(5);
  auto b = reg.counter("x/hits");
  EXPECT_EQ(a.get(), b.get());  // re-binding resumes the same counter
  // Same name, different type: last writer wins.
  auto g = reg.gauge("x/hits");
  EXPECT_NE(static_cast<void*>(g.get()), static_cast<void*>(a.get()));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsRegistry, SnapshotFiltersByPrefix) {
  obs::Registry reg;
  reg.counter("p1/chain/inserts");
  reg.counter("p1/retargets");
  reg.counter("p2/retargets");

  EXPECT_EQ(reg.snapshot().size(), 3u);
  EXPECT_EQ(reg.snapshot("p1").size(), 2u);
  EXPECT_EQ(reg.snapshot("p1/chain").size(), 1u);
  // Exact-name match counts too; prefix match is per path segment, so "p"
  // matches nothing.
  EXPECT_EQ(reg.snapshot("p1/retargets").size(), 1u);
  EXPECT_EQ(reg.snapshot("p").size(), 0u);

  // Sorted by name.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap[0].name, "p1/chain/inserts");
  EXPECT_EQ(snap[2].name, "p2/retargets");
}

TEST(ObsRegistry, DropRemovesSubtree) {
  obs::Registry reg;
  reg.counter("p1/a");
  reg.counter("p1/b/c");
  reg.counter("p2/a");
  reg.drop("p1");
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(has_entry(reg.snapshot(), "p2/a"));
}

TEST(ObsRegistry, AttachSharesExternallyOwnedMetric) {
  obs::Registry reg;
  auto owned = std::make_shared<obs::Counter>();
  owned->add(7);
  reg.attach("fec/groups_encoded", owned);
#if RW_OBS_ENABLED
  EXPECT_EQ(find_value(reg.snapshot(), "fec/groups_encoded"), "7");
#else
  EXPECT_TRUE(has_entry(reg.snapshot(), "fec/groups_encoded"));
#endif
}

TEST(ObsRegistry, CallbackGaugeReadsLiveValue) {
  obs::Registry reg;
  std::atomic<int> live{3};
  reg.callback("depth", [&live] { return static_cast<double>(live.load()); });
  EXPECT_EQ(find_value(reg.snapshot(), "depth"), "3");
  live = 9;
  EXPECT_EQ(find_value(reg.snapshot(), "depth"), "9");
}

TEST(ObsRegistry, ScopeBuildsSlashPaths) {
  obs::Registry reg;
  obs::Scope scope(reg, "proxy/chain");
  EXPECT_EQ(scope.full("inserts"), "proxy/chain/inserts");
  scope.child("fec-encode").counter("packets_in");
  EXPECT_TRUE(has_entry(reg.snapshot(), "proxy/chain/fec-encode/packets_in"));
  scope.drop();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ObsRegistry, RenderEmitsKeyValueLines) {
  obs::Registry reg;
  reg.counter("a")->add(1);
  reg.gauge("b")->set(2);
  const std::string text = obs::render(reg.snapshot());
#if RW_OBS_ENABLED
  EXPECT_EQ(text, "a=1\nb=2\n");
#else
  EXPECT_EQ(text, "a=0\nb=0\n");
#endif
}

// ---------------------------------------------------------------------------
// Chain binding: bind_metrics() publishes, reconfig maintains, unbind drops.

struct BoundChain {
  std::shared_ptr<core::QueuePacketSource> source =
      std::make_shared<core::QueuePacketSource>();
  std::shared_ptr<core::CollectingPacketSink> sink =
      std::make_shared<core::CollectingPacketSink>();
  obs::Registry reg;
  std::shared_ptr<core::FilterChain> chain;

  BoundChain() {
    chain = std::make_shared<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("in", source),
        std::make_shared<core::PacketWriterEndpoint>("out", sink));
    chain->bind_metrics(reg, "p/chain");
    chain->start();
  }
  ~BoundChain() {
    source->finish();
    chain->shutdown();
  }
};

TEST(ObsChain, BindPublishesEndpointAndChainMetrics) {
  BoundChain b;
  const auto snap = b.reg.snapshot("p/chain");
  EXPECT_TRUE(has_entry(snap, "p/chain/filters"));
  EXPECT_TRUE(has_entry(snap, "p/chain/inserts"));
  EXPECT_TRUE(has_entry(snap, "p/chain/in/packets_in"));
  EXPECT_TRUE(has_entry(snap, "p/chain/out/packets_out"));
  EXPECT_EQ(find_value(snap, "p/chain/filters"), "0");
}

TEST(ObsChain, InsertRemoveMaintainPerFilterScopes) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
  // Duplicate leaf names get #2 suffixes instead of colliding.
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 1);

  auto snap = b.reg.snapshot("p/chain");
  EXPECT_TRUE(has_entry(snap, "p/chain/nf/bytes_in"));
  EXPECT_TRUE(has_entry(snap, "p/chain/nf#2/bytes_in"));
#if RW_OBS_ENABLED
  EXPECT_EQ(find_value(snap, "p/chain/filters"), "2");
  EXPECT_EQ(find_value(snap, "p/chain/inserts"), "2");
#endif

  b.chain->remove(1);
  snap = b.reg.snapshot("p/chain");
#if RW_OBS_ENABLED
  EXPECT_EQ(find_value(snap, "p/chain/filters"), "1");
#endif
  EXPECT_TRUE(has_entry(snap, "p/chain/nf/bytes_in"));
  EXPECT_FALSE(has_entry(snap, "p/chain/nf#2/bytes_in"));
#if RW_OBS_ENABLED
  EXPECT_EQ(find_value(snap, "p/chain/removes"), "1");
#endif
}

TEST(ObsChain, TrafficShowsUpInFilterCounters) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
  util::Bytes packet(64, 0x5a);
  for (int i = 0; i < 10; ++i) b.source->push(packet);
  ASSERT_TRUE(b.sink->wait_for(10));

  const auto snap = b.reg.snapshot("p/chain");
  EXPECT_EQ(find_value(snap, "p/chain/out/packets_out"), "10");
#if RW_OBS_ENABLED
  // A pass-through byte filter: at least the framed payload in, and
  // byte-in == byte-out.
  const std::string in = find_value(snap, "p/chain/nf/bytes_in");
  EXPECT_EQ(in, find_value(snap, "p/chain/nf/bytes_out"));
  EXPECT_GE(std::stoull(in), 10u * 64u);
#endif
}

TEST(ObsChain, RingBytesReportsStorageOnlyOnceWritten) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
  auto snap = b.reg.snapshot("p/chain");
  EXPECT_EQ(find_value(snap, "p/chain/in/ring_bytes"), "0");
  EXPECT_EQ(find_value(snap, "p/chain/nf/ring_bytes"), "0");
  EXPECT_EQ(find_value(snap, "p/chain/out/ring_bytes"), "0");

  util::Bytes packet(64, 0x5a);
  for (int i = 0; i < 10; ++i) b.source->push(packet);
  ASSERT_TRUE(b.sink->wait_for(10));
  // Ten 70-byte frames: the rings that carried them hold their first
  // 4 KiB of storage; the head's own ring is never written.
  snap = b.reg.snapshot("p/chain");
  EXPECT_EQ(find_value(snap, "p/chain/in/ring_bytes"), "0");
  EXPECT_EQ(find_value(snap, "p/chain/nf/ring_bytes"), "4096");
  EXPECT_EQ(find_value(snap, "p/chain/out/ring_bytes"), "4096");
}

TEST(ObsChain, EventsTraceRecordsReconfiguration) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
  b.chain->remove(0);
  const std::string text = obs::render(b.reg.snapshot("p/chain/events"));
  EXPECT_NE(text.find("start"), std::string::npos);
  EXPECT_NE(text.find("insert nf @0"), std::string::npos);
  EXPECT_NE(text.find("remove nf @0"), std::string::npos);
}

TEST(ObsChain, LiveSpliceLatencyIsObserved) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
#if RW_OBS_ENABLED
  // Splices on a started chain are timed into the reconfig histogram.
  EXPECT_EQ(find_value(b.reg.snapshot("p/chain/reconfig_us"),
                       "p/chain/reconfig_us.count"),
            "1");
#endif
}

TEST(ObsChain, UnbindDropsEverything) {
  BoundChain b;
  b.chain->insert(std::make_shared<core::NullFilter>("nf"), 0);
  b.chain->unbind_metrics();
  EXPECT_EQ(b.reg.size(), 0u);
  // Rebinding republishes the current membership.
  b.chain->bind_metrics(b.reg, "p2/chain");
  EXPECT_TRUE(has_entry(b.reg.snapshot(), "p2/chain/nf/bytes_in"));
}

// ---------------------------------------------------------------------------
// Stats-log sink

TEST(ObsStatsLog, PeriodicallyEmitsAndFlushesOnStop) {
  obs::Registry reg;
  reg.counter("tick")->add(3);
  std::mutex mu;
  std::vector<std::string> emitted;
  {
    obs::StatsLogSink sink(reg, "", std::chrono::milliseconds(5),
                           [&](const std::string& text) {
                             std::lock_guard lk(mu);
                             emitted.push_back(text);
                           });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }  // dtor stops and emits one final snapshot
  std::lock_guard lk(mu);
  ASSERT_FALSE(emitted.empty());
#if RW_OBS_ENABLED
  EXPECT_NE(emitted.back().find("tick=3"), std::string::npos);
#endif
}

// Regression: stop() used to fast-path on `stopped_`, which was only set
// *after* join() — so two concurrent stop() callers could both reach
// thread_.join() on the same std::thread (undefined behaviour; a crash
// under libstdc++'s debug assertions). Now exactly one caller joins and the
// rest block until the logging thread is gone. Run under TSan in CI.
TEST(ObsStatsLog, ConcurrentStopJoinsExactlyOnce) {
  for (int round = 0; round < 20; ++round) {
    obs::Registry reg;
    std::atomic<int> emits{0};
    obs::StatsLogSink sink(reg, "", std::chrono::milliseconds(1),
                           [&](const std::string&) {
                             emits.fetch_add(1, std::memory_order_relaxed);
                           });
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&] { sink.stop(); });
    }
    for (auto& t : stoppers) t.join();
    // Every stop() returned only after the thread exited, and the final
    // snapshot was emitted exactly once.
    EXPECT_GE(emits.load(), 1);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: the registry's documented contract is writers never block
// and snapshot readers are safe against concurrent create/drop. Run under
// -DRW_SANITIZE=thread these are the suite's race detectors.

TEST(ObsConcurrency, SnapshotRacesCreateMutateDrop) {
  obs::Registry reg;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    auto c = reg.counter("w/hits");
    while (!stop.load(std::memory_order_acquire)) c->add();
  });
  std::thread churner([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      obs::Scope scope(reg, "churn/" + std::to_string(i % 7));
      scope.counter("c")->add();
      scope.gauge("g")->set(i);
      scope.histogram("h", {1.0, 10.0})->observe(i % 20);
      scope.drop();
      ++i;
    }
  });
  std::thread reader([&] {
    std::size_t entries = 0;
    while (!stop.load(std::memory_order_acquire)) {
      entries += reg.snapshot().size();
      entries += reg.snapshot("churn").size();
    }
    EXPECT_GT(entries, 0u);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  writer.join();
  churner.join();
  reader.join();

  EXPECT_TRUE(has_entry(reg.snapshot(), "w/hits"));
}

TEST(ObsConcurrency, DropIsALifetimeBarrierForCallbacks) {
  // A callback reading an object through a raw pointer must be safe to
  // retire via drop(): once drop() returns, no snapshot can still be
  // running the callback. Destroying the target right after drop() is the
  // exact pattern FilterChain/Proxy teardown relies on.
  obs::Registry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.snapshot();
    }
  });
  for (int round = 0; round < 200; ++round) {
    auto target = std::make_unique<std::atomic<int>>(round);
    auto* raw = target.get();
    reg.callback("victim", [raw] { return static_cast<double>(raw->load()); });
    std::this_thread::yield();
    reg.drop("victim");
    target.reset();  // must be safe: no collector can still hold `raw`
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

// The integration stressor: seeded reconfiguration schedules (insert /
// remove / reorder / splice / set_param under fault injection) run with the
// chain bound to a shared registry while reader threads snapshot it
// continuously. TSan turns any unlocked path in the chain<->registry
// binding into a failure; the byte-exactness oracle still applies.
TEST(ObsConcurrency, StressScheduleSweepUnderSnapshotReaders) {
  obs::Registry reg;
  testing::StressOptions opts;
  opts.schedules = 40;
  opts.metrics = &reg;
  opts.metrics_scope = "stress/chain";
  testing::StressDriver driver(opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = reg.snapshot("stress");
        (void)obs::render(snap);
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto summary = driver.run_all();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(summary.failures, 0) << summary.describe();
  EXPECT_EQ(summary.schedules_run, opts.schedules);
  EXPECT_GT(snapshots.load(), 0u);
  // Every schedule's chain unbinds (drops its whole scope) as it tears
  // down, so nothing — in particular no per-filter callback over a dead
  // filter — may survive the sweep.
  for (const auto& e : reg.snapshot("stress")) {
    ADD_FAILURE() << "leaked metric after chain teardown: " << e.name;
  }
}

}  // namespace
}  // namespace rapidware
