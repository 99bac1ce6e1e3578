// Event-driven data plane: core::EventLoop / core::WorkerPool mechanics,
// and the byte-exactness contract for chains hosted on explicit workers
// (docs/data_plane.md, "Worker model").
//
// The hosted-chain tests all assert the same invariant the stress harness
// asserts: no packet is lost, duplicated, reordered, or corrupted — under
// multiplexed on_ready() dispatch, under backpressure parking, across live
// insert/remove reconfiguration, and through the end-of-stream ripple that
// ends a chain, awaited (shutdown) or not (begin_shutdown/finished).
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/endpoint.h"
#include "core/event_loop.h"
#include "core/filter.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "testing/sequence_stream.h"
#include "util/bytes.h"

namespace rapidware {
namespace {

using namespace std::chrono_literals;

/// Polls `pred` until true or `timeout`; returns the final verdict. The
/// hosted data plane is asynchronous by design, so tests wait on observable
/// state instead of sleeping fixed amounts.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Forwards every packet unchanged; the minimal event-capable PacketFilter.
class PassThroughPacketFilter final : public core::PacketFilter {
 public:
  using PacketFilter::PacketFilter;

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
};

// ---------------------------------------------------------------------------
// EventLoop basics

TEST(EventLoop, RunsPostedTasksInOrderAndSyncBarriers) {
  core::EventLoop loop;
  std::thread runner([&] { loop.run(); });

  std::vector<int> order;  // loop-thread-only; read after sync()
  for (int i = 0; i < 16; ++i) {
    loop.post([&order, &loop, i] {
      EXPECT_TRUE(loop.on_loop_thread());
      order.push_back(i);
    });
  }
  loop.sync();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GE(loop.tasks_run(), 16u);
  EXPECT_FALSE(loop.on_loop_thread());

  loop.stop();
  runner.join();
}

TEST(EventLoop, StopDrainsQueueBeforeReturning) {
  core::EventLoop loop;
  std::atomic<int> ran{0};
  // Post before the loop even starts, and again after stop(): run() must
  // execute all of them — stop means "return once drained", not "discard".
  for (int i = 0; i < 8; ++i) loop.post([&] { ran.fetch_add(1); });
  loop.stop();
  for (int i = 0; i < 8; ++i) loop.post([&] { ran.fetch_add(1); });
  std::thread runner([&] { loop.run(); });
  runner.join();
  EXPECT_EQ(ran.load(), 16);
}

TEST(EventLoop, WakeMakesCrossThreadTimerVisibleToAParkedLoop) {
  core::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  // Let the loop park with an empty horizon first.
  loop.sync();

  std::atomic<bool> fired{false};
  // The loop's clock is slaved to wall time; a parked loop's wait is
  // bounded by the horizon it read BEFORE this schedule, so without the
  // wake() the timer would sit invisible until some unrelated post.
  loop.clock().schedule_after(5'000 /* 5 ms virtual */,
                              [&] { fired.store(true); });
  loop.wake();
  EXPECT_TRUE(eventually([&] { return fired.load(); }));

  loop.stop();
  runner.join();
}

// ---------------------------------------------------------------------------
// WorkerPool basics

TEST(WorkerPool, LeastLoadedPlacementAndIdempotentStop) {
  core::WorkerPool pool(2);
  ASSERT_EQ(pool.size(), 2u);

  // Pin worker 0 busy: a task that blocks until released, plus queued
  // backlog behind it, drives its load gauge well above worker 1's.
  std::atomic<bool> release{false};
  pool.worker(0).post([&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 8; ++i) pool.worker(0).post([] {});
  ASSERT_TRUE(eventually([&] { return pool.worker(0).queue_depth() >= 1; }));

  // Placement must route around the loaded worker.
  EXPECT_EQ(&pool.next(), &pool.worker(1));
  EXPECT_EQ(pool.try_next(), &pool.worker(1));

  release.store(true, std::memory_order_release);
  std::atomic<int> ran{0};
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool.worker(i).post([&] { ran.fetch_add(1); });
  }
  for (std::size_t i = 0; i < pool.size(); ++i) pool.worker(i).sync();
  EXPECT_EQ(ran.load(), 2);

  pool.stop();
  pool.stop();  // idempotent
}

TEST(WorkerPool, RegressionPlacementAfterStopIsRejectedNotRacy) {
  // Regression: next() used to fetch_add a shared round-robin cursor and
  // hand out a loop reference even after stop(), so a caller could post to
  // a dead worker. Post-stop placement must now fail loudly (next) or
  // observably (try_next) instead of dangling.
  core::WorkerPool pool(2);
  EXPECT_NE(pool.try_next(), nullptr);
  pool.stop();
  EXPECT_EQ(pool.try_next(), nullptr);
  EXPECT_THROW(pool.next(), std::logic_error);
}

TEST(WorkerPool, RegressionSyncAfterStopThrowsNotHangs) {
  // Regression: sync() on a loop whose run() had returned queued its
  // barrier where nothing would ever run it and waited for ever (a
  // FlowTable outliving its stopped pool hung in its destructor). It must
  // fail loudly instead, as next() does on a stopped pool.
  core::WorkerPool pool(1);
  pool.worker(0).sync();
  pool.stop();
  EXPECT_THROW(pool.worker(0).sync(), std::logic_error);
}

TEST(WorkerPool, SizeZeroPicksAtLeastOneWorker) {
  core::WorkerPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  pool.stop();
}

// ---------------------------------------------------------------------------
// Hosted chains: byte-exactness under multiplexed dispatch

struct HostedChain {
  std::shared_ptr<core::QueuePacketSource> source =
      std::make_shared<core::QueuePacketSource>();
  std::shared_ptr<core::CollectingPacketSink> sink =
      std::make_shared<core::CollectingPacketSink>();
  std::shared_ptr<core::PacketReaderEndpoint> head;
  std::shared_ptr<core::PacketWriterEndpoint> tail;
  std::unique_ptr<core::FilterChain> chain;

  explicit HostedChain(core::EventLoop& loop) {
    head = std::make_shared<core::PacketReaderEndpoint>("rx", source);
    tail = std::make_shared<core::PacketWriterEndpoint>("tx", sink);
    chain = std::make_unique<core::FilterChain>(head, tail);
    chain->host_on(loop);
    chain->start();
  }
};

TEST(HostedChain, FullyEventChainDeliversByteExact) {
  constexpr std::uint32_t kPackets = 2000;
  constexpr std::uint64_t kSeed = 0x9e37be11ULL;
  core::WorkerPool pool(2);
  {
    obs::Registry metrics;
    HostedChain h(pool.next());
    h.chain->bind_metrics(metrics, "test/hosted");
    h.chain->insert(std::make_shared<PassThroughPacketFilter>("pass"), 0);

    for (std::uint32_t i = 0; i < kPackets; ++i) {
      h.source->push(testing::make_stamped_packet(kSeed, i, 256));
    }
    h.source->finish();
    ASSERT_TRUE(h.sink->wait_for(kPackets));

    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sink->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(ledger.corrupt(), 0u);

    h.chain->shutdown();
  }
  pool.stop();
}

TEST(HostedChain, BackpressureParkingPreservesOrder) {
  // Tiny rings between the stages force the reader and the pass-through
  // stages into the park-on-full / resume-on-writable path constantly; the
  // ledger proves parking never drops or reorders a frame. The queue is
  // pre-loaded before start so the first drive already faces a full ring.
  constexpr std::uint32_t kPackets = 5000;
  constexpr std::uint64_t kSeed = 0xba0cfeedULL;
  core::WorkerPool pool(1);
  {
    HostedChain h(pool.worker(0));
    h.chain->insert(
        std::make_shared<PassThroughPacketFilter>("narrow0", 256), 0);
    h.chain->insert(
        std::make_shared<PassThroughPacketFilter>("narrow1", 256), 1);

    for (std::uint32_t i = 0; i < kPackets; ++i) {
      h.source->push(testing::make_stamped_packet(kSeed, i, 64));
    }
    h.source->finish();
    ASSERT_TRUE(h.sink->wait_for(kPackets, /*timeout_ms=*/30'000));

    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sink->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);

    h.chain->shutdown();
  }
  pool.stop();
}

TEST(HostedChain, LiveInsertRemoveIsByteExact) {
  // The chain-reconfiguration protocol (pause / flush / splice) against a
  // pool-hosted chain: control ops run from this thread while packets flow
  // through the worker.
  constexpr std::uint32_t kPackets = 4000;
  constexpr std::uint64_t kSeed = 0x5eedc0deULL;
  core::WorkerPool pool(2);
  {
    HostedChain h(pool.next());

    std::thread producer([&] {
      for (std::uint32_t i = 0; i < kPackets; ++i) {
        h.source->push(testing::make_stamped_packet(kSeed, i, 200));
        if (i % 257 == 0) std::this_thread::yield();
      }
      h.source->finish();
    });

    for (int round = 0; round < 24; ++round) {
      h.chain->insert(std::make_shared<PassThroughPacketFilter>(
                          "p" + std::to_string(round)),
                      h.chain->size() == 0 ? 0 : round % h.chain->size());
      if (h.chain->size() > 2) h.chain->remove(0);
      std::this_thread::yield();
    }

    producer.join();
    ASSERT_TRUE(h.sink->wait_for(kPackets, /*timeout_ms=*/30'000));

    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sink->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(ledger.corrupt(), 0u);

    h.chain->shutdown();
  }
  pool.stop();
}

TEST(HostedChain, AsyncBeginShutdownReachesFinishedWithoutBlocking) {
  // The eviction path: begin_shutdown() never waits, finished() flips once
  // every member's final drive has run on the worker — the protocol the
  // FlowTable idle sweep relies on to tear chains down from the worker
  // itself without blocking it.
  constexpr std::uint32_t kPackets = 500;
  constexpr std::uint64_t kSeed = 0xf10a7ULL;
  core::WorkerPool pool(1);
  {
    HostedChain h(pool.worker(0));
    h.chain->insert(std::make_shared<PassThroughPacketFilter>("pass"), 0);

    for (std::uint32_t i = 0; i < kPackets; ++i) {
      h.source->push(testing::make_stamped_packet(kSeed, i, 128));
    }
    h.source->finish();
    ASSERT_TRUE(h.sink->wait_for(kPackets));

    h.chain->begin_shutdown();
    EXPECT_TRUE(eventually([&] { return h.chain->finished(); }));
    EXPECT_FALSE(h.head->running());
    EXPECT_FALSE(h.tail->running());
    EXPECT_EQ(h.sink->count(), kPackets);  // nothing lost by the async path
  }
  pool.stop();
}

TEST(HostedChain, BeginShutdownDeliversEverythingInFlight) {
  // The teardown is lossless: packets still queued at the head when
  // begin_shutdown() is called reach the sink, byte-exact and in order,
  // ahead of the end of the stream. Holding the worker keeps all of them
  // in flight until the shutdown has been requested.
  constexpr std::uint32_t kPackets = 2000;
  constexpr std::uint64_t kSeed = 0x1055e55ULL;
  core::WorkerPool pool(1);
  {
    HostedChain h(pool.worker(0));
    h.chain->insert(std::make_shared<PassThroughPacketFilter>("pass"), 0);

    std::atomic<bool> release{false};
    pool.worker(0).post([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(1ms);
      }
    });
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      h.source->push(testing::make_stamped_packet(kSeed, i, 128));
    }
    h.chain->begin_shutdown();
    release.store(true, std::memory_order_release);
    ASSERT_TRUE(eventually([&] { return h.chain->finished(); }, 30s));

    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sink->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(ledger.corrupt(), 0u);
    EXPECT_TRUE(h.sink->ended());
  }
  pool.stop();
}

TEST(HostedChain, RegressionDestroyImmediatelyAfterBeginShutdown) {
  // Regression: destroying a chain right after begin_shutdown() — without
  // polling finished() — must join the still-retiring final drives before
  // any member's streams are freed. (The many-chains bench tears down
  // exactly this way and used to segfault intermittently: the destructor's
  // shutdown() saw shut_down_ already set, skipped the joins, and an
  // upstream drive wrote into a freed ring.)
  constexpr std::uint64_t kSeed = 0x5eedf00dULL;
  core::WorkerPool pool(2);
  for (int round = 0; round < 50; ++round) {
    HostedChain h(pool.next());
    h.chain->insert(std::make_shared<PassThroughPacketFilter>("pass"), 0);
    for (std::uint32_t i = 0; i < 64; ++i) {
      h.source->push(testing::make_stamped_packet(kSeed, i, 128));
    }
    h.source->finish();
    ASSERT_TRUE(h.sink->wait_for(64));
    // No finished() poll: the EOF drives are still retiring when the
    // destructor runs.
    h.chain->begin_shutdown();
    h.chain.reset();
    EXPECT_EQ(h.sink->count(), 64u);  // the joined teardown lost nothing
  }
  pool.stop();
}

TEST(HostedChain, RegressionWorkerShutdownMidReconfigure) {
  // Regression: shutting a hosted chain down while a control thread is
  // mid-reconfigure must not wedge either side — the control op either
  // completes or observes "chain shut down", and the pool stops cleanly
  // afterwards. (An early worker-model draft deadlocked here: the splice
  // drain waited on a filter whose final drive the shutdown had already
  // retired.)
  constexpr std::uint32_t kPackets = 3000;
  constexpr std::uint64_t kSeed = 0xdeadd00dULL;
  core::WorkerPool pool(1);
  {
    HostedChain h(pool.worker(0));

    std::thread producer([&] {
      for (std::uint32_t i = 0; i < kPackets; ++i) {
        h.source->push(testing::make_stamped_packet(kSeed, i, 96));
      }
      h.source->finish();
    });

    std::atomic<bool> control_done{false};
    std::thread control([&] {
      try {
        for (int i = 0; i < 10'000; ++i) {
          h.chain->insert(
              std::make_shared<PassThroughPacketFilter>("c" + std::to_string(i)),
              0);
          h.chain->remove(0);
        }
      } catch (const std::exception&) {
        // begin_shutdown() won the race; StreamError is the expected exit.
      }
      control_done.store(true, std::memory_order_release);
    });

    ASSERT_TRUE(h.sink->wait_for(1, /*timeout_ms=*/10'000));
    h.chain->begin_shutdown();
    ASSERT_TRUE(eventually([&] {
      return control_done.load(std::memory_order_acquire);
    }, 30s));
    control.join();
    producer.join();
    EXPECT_TRUE(eventually([&] { return h.chain->finished(); }, 30s));
  }
  pool.stop();
}

}  // namespace
}  // namespace rapidware
