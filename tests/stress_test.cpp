// Fault-injection & concurrency stress for the detachable-stream layer.
//
// The paper's invariant under test: pause / disconnect / reconnect /
// restart on a LIVE stream never loses, duplicates, or reorders a byte.
// Every test here is seeded and deterministic: the schedule (control ops +
// fault decisions) derives from the seed, and a failure always prints the
// seed so the schedule replays exactly. Scale the sweep with
// RW_STRESS_SCHEDULES (default 500); run under -DRW_SANITIZE=thread and
// -DRW_SANITIZE=address to turn every schedule into a race/UB check.
//
// Pacing is virtual-time by default: drawn delays advance the injectors'
// SimClocks and yield, so the full 500-schedule sweep finishes in seconds.
// The Rng draws are identical in both modes, so pinned seeds replay the
// same schedules. WallClockSmokeSubset re-enables real sleeps on a small
// subset so sanitizer runs still see genuine preemption windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "net/link.h"
#include "testing/fault_injector.h"
#include "testing/sequence_stream.h"
#include "testing/stress.h"
#include "util/buffer_pool.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/rng.h"

namespace rapidware {
namespace {

using testing::FaultInjector;
using testing::FaultPlan;
using testing::SequenceChecker;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

// The one seed every sweep in this file derives from. Override with
// RW_STRESS_SEED to replay a CI failure locally.
std::uint64_t base_seed() {
  const char* v = std::getenv("RW_STRESS_SEED");
  if (v == nullptr || *v == '\0') return 0x5eedfeedULL;
  return std::strtoull(v, nullptr, 0);
}

// ---------------------------------------------------------------------------
// The oracle itself must catch every anomaly class, or the sweeps below
// prove nothing.

TEST(SequenceOracle, CatchesLossDuplicationReorderAndCorruption) {
  const std::uint64_t seed = 0x0de11e7ULL;
  util::Bytes wire(256);
  testing::fill_pattern(seed, 0, wire);

  {  // pristine
    SequenceChecker c(seed);
    c.write(wire);
    EXPECT_TRUE(c.clean());
    EXPECT_EQ(c.received(), wire.size());
  }
  {  // one byte lost: everything after shifts
    SequenceChecker c(seed);
    util::Bytes cut(wire);
    cut.erase(cut.begin() + 100);
    c.write(cut);
    ASSERT_FALSE(c.clean());
    EXPECT_EQ(c.divergence()->offset, 100u);
  }
  {  // one byte duplicated
    SequenceChecker c(seed);
    util::Bytes dup(wire);
    dup.insert(dup.begin() + 100, dup[100]);
    c.write(dup);
    EXPECT_FALSE(c.clean());
  }
  {  // two chunks swapped (reordering)
    SequenceChecker c(seed);
    util::Bytes swapped(wire);
    std::swap_ranges(swapped.begin() + 32, swapped.begin() + 64,
                     swapped.begin() + 64);
    c.write(swapped);
    ASSERT_FALSE(c.clean());
    EXPECT_EQ(c.divergence()->offset, 32u);
  }
  {  // single bit flip (corruption)
    SequenceChecker c(seed);
    util::Bytes flip(wire);
    flip[200] ^= 0x20;
    c.write(flip);
    ASSERT_FALSE(c.clean());
    EXPECT_EQ(c.divergence()->offset, 200u);
  }
}

// ---------------------------------------------------------------------------
// Bare pipe: writer + reader + control threads on one DIS/DOS pair.

TEST(PipeStress, PauseReconnectCyclesLoseNothing) {
  const int schedules = std::max(1, env_int("RW_STRESS_SCHEDULES", 500) / 10);
  testing::PipeStressOptions opts;
  opts.total_bytes = 48 * 1024;
  opts.pause_cycles = 24;
  util::Rng seeds(base_seed() ^ 0x9199e5ULL);
  int pauses = 0;
  for (int i = 0; i < schedules; ++i) {
    const std::uint64_t seed = seeds.next_u64();
    SCOPED_TRACE(::testing::Message()
                 << "replay with pipe schedule seed 0x" << std::hex << seed);
    // Vary the ring so both tiny (constant blocking) and roomy pipes run.
    opts.ring_capacity = std::size_t{128} << (i % 4);
    const auto res = testing::run_pipe_schedule(seed, opts);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.bytes_delivered, opts.total_bytes);
    pauses += res.pauses_executed;
  }
  // The control thread must actually have raced pause() against live I/O.
  EXPECT_GT(pauses, schedules);
}

// ---------------------------------------------------------------------------
// Full chain: randomized insert/remove/reorder/pause schedules.

TEST(ChainStress, RandomizedScheduleSweepIsByteExact) {
  testing::StressOptions opts;
  opts.seed = base_seed();
  opts.schedules = env_int("RW_STRESS_SCHEDULES", 500);
  testing::StressDriver driver(opts);
  const auto summary = driver.run_all();
  EXPECT_EQ(summary.failures, 0) << summary.describe();
  EXPECT_EQ(summary.schedules_run, opts.schedules);
  // The sweep must be genuinely hostile, not a no-op pass: faults fired,
  // and at least three in four control ops ran while the sink still lacked
  // bytes (a harness whose data outran its ops would pass vacuously).
  EXPECT_GT(summary.control_ops, 0u);
  EXPECT_GT(summary.faults_fired, 0u);
  EXPECT_GE(summary.ops_in_flight * 4, summary.control_ops * 3)
      << summary.describe();
  EXPECT_EQ(summary.bytes_total,
            std::uint64_t(opts.schedules) * opts.bytes_per_schedule);
}

TEST(ChainStress, SchedulesAreDeterministicPerSeed) {
  testing::StressDriver driver({});
  util::Rng seeds(base_seed() ^ 0xd7ULL);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t seed = seeds.next_u64();
    SCOPED_TRACE(::testing::Message()
                 << "replay with chain schedule seed 0x" << std::hex << seed);
    const auto a = driver.run_schedule(seed);
    const auto b = driver.run_schedule(seed);
    // Thread interleaving varies run to run; the schedule (op sequence) and
    // the verdict may not.
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
    EXPECT_EQ(a.ok, b.ok);
    ASSERT_TRUE(a.ok) << a.describe();
  }
}

// Schedules that exposed real core bugs during bring-up stay pinned forever.
// 1) close-while-blocked: DOS::close() failed to wake an in-flight write
//    blocked on a full ring (missed wakeup in detachable_stream.cpp).
// 2) dead-tail wedge: a filter that died on an exception left its input
//    ring full forever, deadlocking every upstream stage and the chain's
//    own teardown (fixed in the filter's drive: a dead stage closes its
//    input).
// The direct regression tests for both live below; this sweep re-runs the
// chain schedules that first tripped over them.
TEST(ChainStress, RegressionSchedules) {
  const std::uint64_t pinned[] = {
      0x7aa96a482cbd41bfULL,  // insert@0 + splice while the head ring is full
      0x2f1d9f4bb6f0a3e1ULL,  // remove of a mid-flush filter after reorder
      0x00000000000001a7ULL,  // low-entropy seed: back-to-back splices
  };
  testing::StressDriver driver({});
  for (const std::uint64_t seed : pinned) {
    SCOPED_TRACE(::testing::Message()
                 << "replay with chain schedule seed 0x" << std::hex << seed);
    const auto res = driver.run_schedule(seed);
    EXPECT_TRUE(res.ok) << res.describe();
  }
}

// The same randomized schedules with every chain pinned to a worker of a
// private two-worker pool (StressOptions.pool) instead of the default
// pool: insert / remove / reorder / pause+reconnect run against chains
// that share their worker with the previous schedules' teardown. A fifth
// of the default sweep: each schedule covers the same op space, the sweep
// exists to vary interleavings.
TEST(ChainStress, PoolHostedSchedulesAreByteExact) {
  core::WorkerPool pool(2);
  testing::StressOptions opts;
  opts.seed = base_seed() ^ 0x9001ULL;
  opts.schedules = std::max(1, env_int("RW_STRESS_SCHEDULES", 500) / 5);
  opts.pool = &pool;
  testing::StressDriver driver(opts);
  const auto summary = driver.run_all();
  EXPECT_EQ(summary.failures, 0) << summary.describe();
  EXPECT_EQ(summary.schedules_run, opts.schedules);
  EXPECT_GT(summary.control_ops, 0u);
  EXPECT_EQ(summary.bytes_total,
            std::uint64_t(opts.schedules) * opts.bytes_per_schedule);
  pool.stop();
}

// The pinned regression schedules replayed on a private pool: the hosting
// pool must not change any schedule's verdict.
TEST(ChainStress, PoolHostedRegressionSchedules) {
  const std::uint64_t pinned[] = {
      0x7aa96a482cbd41bfULL,
      0x2f1d9f4bb6f0a3e1ULL,
      0x00000000000001a7ULL,
  };
  core::WorkerPool pool(2);
  testing::StressOptions opts;
  opts.pool = &pool;
  testing::StressDriver driver(opts);
  for (const std::uint64_t seed : pinned) {
    SCOPED_TRACE(::testing::Message()
                 << "replay with chain schedule seed 0x" << std::hex << seed);
    const auto res = driver.run_schedule(seed);
    EXPECT_TRUE(res.ok) << res.describe();
  }
  pool.stop();
}

// Wall-clock smoke subset: a handful of schedules with real sleeps (both
// control-op pacing and injector delays), preserving the genuine
// lose-the-CPU preemption windows the virtual-time sweep trades away.
// Under TSan/ASan this is the subset that stresses timing-dependent
// interleavings; keep it small — wall sleeps dominate its runtime.
TEST(ChainStress, WallClockSmokeSubset) {
  testing::StressOptions opts;
  opts.seed = base_seed() ^ 0x3a11ULL;
  opts.schedules = std::max(1, env_int("RW_STRESS_SCHEDULES", 500) / 25);
  opts.wall_pacing = true;
  opts.faults.wall_delays = true;
  testing::StressDriver driver(opts);
  const auto summary = driver.run_all();
  EXPECT_EQ(summary.failures, 0) << summary.describe();
  EXPECT_EQ(summary.schedules_run, opts.schedules);
  EXPECT_EQ(summary.bytes_total,
            std::uint64_t(opts.schedules) * opts.bytes_per_schedule);
}

// ---------------------------------------------------------------------------
// Fault termination: injected failures must end cleanly — a dead stage may
// truncate the stream (delivered bytes stay a byte-exact prefix) but must
// never corrupt it, hang the chain, or leak threads.

TEST(ChainStress, InjectedSinkFailuresTerminateCleanly) {
  util::Rng seeds(base_seed() ^ 0xfa11ULL);
  const int schedules = std::max(1, env_int("RW_STRESS_SCHEDULES", 500) / 25);
  for (int i = 0; i < schedules; ++i) {
    const std::uint64_t seed = seeds.next_u64();
    SCOPED_TRACE(::testing::Message()
                 << "replay with fault schedule seed 0x" << std::hex << seed);

    auto faults = std::make_shared<FaultInjector>(seed, FaultPlan{
        .delay_p = 0.2,
        .throw_p = 0.02,  // armed: sink/source may throw mid-transfer
    });
    auto source =
        std::make_shared<testing::SequencePacketSource>(seed, 32 * 1024, faults);
    auto sink = std::make_shared<testing::SequencePacketSink>(seed, faults);

    auto head = std::make_shared<core::PacketReaderEndpoint>("head", source);
    auto tail = std::make_shared<core::PacketWriterEndpoint>("tail", sink, 1024);
    core::FilterChain chain(head, tail);
    chain.start();

    // Let it run (and quite possibly die) while we splice a filter in/out.
    try {
      chain.insert(std::make_shared<core::NullFilter>("nf"), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      chain.remove(0);
    } catch (const core::StreamError&) {
      // A dead stage can legitimately make a control op fail; that must be
      // a typed error, not a hang or a crash.
    }
    chain.shutdown();  // must always complete

    const SequenceChecker& checker = sink->checker();
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_LE(checker.received(), source->total());
    // A packet the sink threw on is not counted as written.
    EXPECT_EQ(tail->packets_written(), sink->packets());
  }
}

// Pinned regression: DOS::close() while a write is blocked on a full ring
// (no reader draining). Before the fix the writer slept forever; now it
// must wake and throw BrokenPipe.
TEST(PipeStress, RegressionCloseWakesBlockedWriter) {
  auto dis = std::make_shared<core::DetachableInputStream>(64);
  auto dos = std::make_shared<core::DetachableOutputStream>();
  dos->connect(*dis);

  std::promise<bool> threw;
  auto threw_future = threw.get_future();
  std::thread writer([dis, dos, &threw] {
    util::Bytes big(4096, 0xaa);
    try {
      dos->write(big);  // blocks at 64 bytes: nobody reads
      threw.set_value(false);
    } catch (const core::BrokenPipe&) {
      threw.set_value(true);
    }
  });

  // Wait until the writer is actually wedged mid-write.
  while (dis->available() < 64) std::this_thread::yield();
  dos->close();

  ASSERT_EQ(threw_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "close() failed to wake the blocked writer";
  EXPECT_TRUE(threw_future.get());
  writer.join();

  // The prefix that landed before close() is still readable, then EOF.
  util::Bytes buf(128);
  EXPECT_EQ(dis->read_some(buf), 64u);
  EXPECT_EQ(dis->read_some(buf), 0u);
}

// Pinned regression: a tail whose drive died must release backpressure so
// upstream stages (and chain teardown) do not wedge against its full ring.
TEST(ChainStress, RegressionDeadTailReleasesBackpressure) {
  struct ThrowingSink final : core::PacketSink {
    void deliver(util::ByteSpan) override {
      throw core::StreamError("sink died");
    }
  };
  auto head = std::make_shared<core::PacketReaderEndpoint>(
      "head", std::make_shared<testing::SequencePacketSource>(0x7e57ULL,
                                                              1 << 20));
  auto tail = std::make_shared<core::PacketWriterEndpoint>(
      "tail", std::make_shared<ThrowingSink>(), 2048);
  core::FilterChain chain(head, tail);
  chain.start();

  // The tail dies on its first packet; the head (1 MiB to push through a
  // 2 KiB ring) must observe BrokenPipe instead of blocking forever.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (head->running() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(head->running())
      << "dead tail wedged the head endpoint (backpressure never released)";
  chain.shutdown();  // must complete promptly
}

// ---------------------------------------------------------------------------
// Batched data plane under faults: util::FrameReader pulling through a
// fault-injecting transport (short reads land mid-header and mid-payload,
// so the stash/resume path runs constantly), recycling every payload buffer
// through a util::BufferPool.

/// In-memory frame store: write_frame() fills it, then it serves as the
/// ByteSource a FaultyByteSource wraps.
class MemoryFrameStore final : public util::ByteSource, public util::ByteSink {
 public:
  void write(util::ByteSpan in) override {
    data_.insert(data_.end(), in.begin(), in.end());
  }
  std::size_t read_some(util::MutableByteSpan out) override {
    const std::size_t n = std::min(out.size(), data_.size() - pos_);
    std::copy_n(data_.begin() + static_cast<long>(pos_), n, out.begin());
    pos_ += n;
    return n;
  }

 private:
  util::Bytes data_;
  std::size_t pos_ = 0;
};

TEST(PipeStress, FrameReaderAndPoolSurviveFaultyTransport) {
  // Three pinned schedules (kept forever) plus a seed-derived sweep.
  std::vector<std::uint64_t> seeds = {
      0xf7a3e5d1c9b80642ULL,  // short read splits a header at byte 5
      0x00000000000000fdULL,  // low-entropy: long runs of 1-byte reads
      0x5ca1ab1e0ddba11ULL,   // alternating tiny/huge truncations
  };
  util::Rng sweep(base_seed() ^ 0xf4a3eULL);
  const int extra = std::max(1, env_int("RW_STRESS_SCHEDULES", 500) / 50);
  for (int i = 0; i < extra; ++i) seeds.push_back(sweep.next_u64());

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message()
                 << "replay with framed schedule seed 0x" << std::hex << seed);
    util::Rng rng(seed);
    auto store = std::make_shared<MemoryFrameStore>();
    std::vector<util::Bytes> expect;
    const int frames = 150 + static_cast<int>(rng.next_below(100));
    for (int i = 0; i < frames; ++i) {
      util::Bytes payload(rng.next_below(700));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.next_below(256));
      }
      util::write_frame(*store, payload);
      expect.push_back(std::move(payload));
    }

    auto faults = std::make_shared<FaultInjector>(seed, FaultPlan{
        .short_read_p = 0.8,
        .delay_p = 0.0,  // single-threaded: delays only slow the sweep
    });
    testing::FaultyByteSource src(store, faults);
    util::BufferPool pool;
    util::FrameReader reader(src, pool);
    for (int i = 0; i < frames; ++i) {
      auto frame = reader.next();
      ASSERT_TRUE(frame.has_value()) << "frame " << i << " missing";
      ASSERT_EQ(*frame, expect[static_cast<std::size_t>(i)])
          << "frame " << i << " corrupted";
      pool.release(std::move(*frame));  // recycle, as the data plane does
    }
    EXPECT_FALSE(reader.next().has_value());  // clean EOF after the last
    EXPECT_EQ(reader.frames(), static_cast<std::uint64_t>(frames));

    // The schedule must have been hostile, and the pool actually used:
    // every payload acquire beyond the first few is a recycled buffer.
    EXPECT_GT(faults->short_reads(), 0u);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(frames));
    EXPECT_GT(stats.hits, stats.misses);
  }
}

// Armed throws: a transport that dies mid-stream must surface as a typed
// error from FrameReader::next() — never a hang, a truncated-but-clean EOF
// with a partial frame buffered, or a corrupted frame — and the pool must
// stay usable afterwards (no buffer is lost to the unwound stack).
TEST(PipeStress, FrameReaderPropagatesInjectedTransportErrors) {
  util::Rng sweep(base_seed() ^ 0x7404ULL);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t seed = sweep.next_u64();
    SCOPED_TRACE(::testing::Message()
                 << "replay with throwing schedule seed 0x" << std::hex
                 << seed);
    util::Rng rng(seed);
    auto store = std::make_shared<MemoryFrameStore>();
    std::vector<util::Bytes> expect;
    constexpr int kFrames = 120;
    for (int f = 0; f < kFrames; ++f) {
      util::Bytes payload(rng.next_below(500));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.next_below(256));
      }
      util::write_frame(*store, payload);
      expect.push_back(std::move(payload));
    }

    auto faults = std::make_shared<FaultInjector>(seed, FaultPlan{
        .short_read_p = 0.5,
        .delay_p = 0.0,
        .throw_p = 0.1,  // armed: the transport may die at any read
    });
    testing::FaultyByteSource src(store, faults);
    util::BufferPool pool;
    util::FrameReader reader(src, pool);

    std::size_t got = 0;
    bool threw = false;
    try {
      for (;;) {
        auto frame = reader.next();
        if (!frame) break;
        ASSERT_LT(got, expect.size());
        ASSERT_EQ(*frame, expect[got]) << "frame " << got << " corrupted";
        ++got;
        pool.release(std::move(*frame));
      }
    } catch (const core::StreamError&) {
      threw = true;
    }
    // The delivered prefix is byte-exact (asserted above); the outcome
    // matches what the injector actually did.
    EXPECT_EQ(threw, faults->throws() > 0);
    if (!threw) EXPECT_EQ(got, expect.size());

    // The pool survived the unwind: acquire/release still round-trip.
    util::Bytes b = pool.acquire(256);
    pool.release(std::move(b));
    EXPECT_GT(pool.stats().recycled, 0u);
  }
}

// ---------------------------------------------------------------------------
// Link-level faults: the datagram path may lose and reorder (that is what
// FEC/ARQ exist for), and the packet oracle must classify exactly what the
// injected faults did.

TEST(LinkStress, InjectedLossAndReorderAreDetectedByTheLedger) {
  const std::uint64_t seed = base_seed() ^ 0x11ULL;
  auto faults = std::make_shared<FaultInjector>(seed, FaultPlan{
      .link_drop_p = 0.05,
      .link_outage_p = 0.01,
      .link_outage_packets = 6,
  });
  auto loss = std::make_shared<testing::LinkFaults>(
      std::make_shared<net::PerfectChannel>(), faults);

  net::ChannelConfig config;
  config.loss = loss;
  config.latency_us = 2'000;
  config.jitter_us = 5'000;  // far beyond the send gap: guarantees reorder
  net::Channel channel(config, util::Rng(seed ^ 0x1eafULL));

  const std::uint32_t kPackets = 600;
  std::vector<std::pair<util::Micros, std::uint32_t>> arrivals;
  util::Micros now = 0;
  for (std::uint32_t seq = 0; seq < kPackets; ++seq) {
    now += 500;  // 0.5 ms send gap
    if (const auto at = channel.transit(64, now)) {
      arrivals.emplace_back(*at, seq);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  testing::PacketLedger ledger(seed, kPackets);
  for (const auto& [at, seq] : arrivals) {
    ledger.record(testing::make_stamped_packet(seed, seq, 64));
  }

  EXPECT_GT(faults->link_drops(), 0u);
  EXPECT_EQ(ledger.lost(), faults->link_drops());
  EXPECT_GT(ledger.reordered(), 0u);
  EXPECT_EQ(ledger.duplicates(), 0u);
  EXPECT_EQ(ledger.corrupt(), 0u);
  EXPECT_EQ(ledger.ok() + ledger.lost(), kPackets);
}

}  // namespace
}  // namespace rapidware
