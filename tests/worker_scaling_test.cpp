// Shared-nothing worker scaling (docs/data_plane.md, "Worker model"):
//
//  - a hosted audio chain (source → fec → interleave → transcode → sink)
//    adds no threads beyond the pool's own;
//  - the steady-state data path takes no global-pool lock: every
//    acquire/release resolves to the worker's arena (the lock_acquires()
//    instrumentation on util::default_pool() proves it);
//  - the PacketLedger stays exact across live fec(n,k) insert / retune /
//    remove while the chain is pool-hosted;
//  - a pinned-seed randomized schedule of reconfigurations and payload
//    sizes on the per-worker pool path loses nothing.
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/endpoint.h"
#include "core/event_loop.h"
#include "core/filter.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "filters/fec_filters.h"
#include "filters/interleave_filter.h"
#include "filters/transcode_filter.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "testing/sequence_stream.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace rapidware {
namespace {

using namespace std::chrono_literals;

/// Polls `pred` until true or `timeout`; returns the final verdict.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Live thread count of this process (/proc/self/status), or -1 if the
/// platform doesn't expose it — callers skip the check then.
int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(sizeof("Threads:") - 1));
    }
  }
  return -1;
}

/// Forwards every packet unchanged; the minimal event-capable PacketFilter.
class PassThroughPacketFilter final : public core::PacketFilter {
 public:
  using PacketFilter::PacketFilter;

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
};

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

// ---------------------------------------------------------------------------
// No added threads: the hosted audio chain

TEST(WorkerScaling, FullyEventHostedAudioChainRunsWithZeroShimThreads) {
  constexpr std::uint32_t kPackets = 96;
  core::WorkerPool pool(2);
  const int base_threads = thread_count();
  {
    HostedChain h(pool.next());
    h.chain->insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
    h.chain->insert(std::make_shared<filters::InterleaveFilter>(3, 5), 1);
    h.chain->insert(std::make_shared<filters::DeinterleaveFilter>(3, 5), 2);
    h.chain->insert(std::make_shared<filters::FecDecodeFilter>(), 3);
    h.chain->insert(std::make_shared<filters::AudioTranscodeFilter>(
                        media::paper_audio_format(), filters::TranscodeMode::kMono),
                    4);

    // Every member — endpoints, FEC codec pair, interleaver pair, and the
    // transcoder — runs as on_ready() drives on the worker: the hosted
    // chain added no threads, the pool's workers carry it all.
    if (base_threads > 0) {
      EXPECT_EQ(thread_count(), base_threads);
    }

    media::AudioSource src;
    media::AudioPacketizer packetizer(src);
    std::vector<std::size_t> sent_payload_sizes;
    std::vector<std::uint32_t> sent_seqs;
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      const media::MediaPacket p = packetizer.next();
      sent_payload_sizes.push_back(p.payload.size());
      sent_seqs.push_back(p.seq);
      h.source->push(p.serialize());
    }
    h.source->finish();
    // Most of the stream arrives mid-flight (the interleaver and the FEC
    // group assembly each hold a bounded tail until the drain flushes it);
    // wait for steady-state flow before sampling the thread count.
    ASSERT_TRUE(h.sink->wait_for(kPackets / 2, /*timeout_ms=*/30'000));
    if (base_threads > 0) {
      EXPECT_EQ(thread_count(), base_threads);
    }
    h.chain->drain_shutdown();

    // The stream survived the codec sandwich in order, and the transcoder
    // did its job: stereo payloads came out mono (half the bytes).
    const auto& out = h.sink->packets();
    ASSERT_EQ(out.size(), kPackets);
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      const media::MediaPacket p = media::MediaPacket::parse(out[i]);
      EXPECT_EQ(p.seq, sent_seqs[i]);
      EXPECT_EQ(p.payload.size(), sent_payload_sizes[i] / 2);
    }
  }
  pool.stop();
}

// ---------------------------------------------------------------------------
// Shared-nothing proof: steady state never touches the global pool

TEST(WorkerScaling, SteadyStateTakesZeroGlobalPoolLocks) {
  constexpr std::uint64_t kSeed = 0x10c41055ULL;  // "lockloss"
  constexpr std::uint64_t kBytes = 4 << 20;
  core::WorkerPool pool(1);
  // Pre-warm the arena, on the worker, for every size class a packet of
  // the stream can need (bench_worker_scaling does the same). Packet sizes
  // are random, so the most buffers of one class a FrameReader batch holds
  // at once keeps creeping up along the stream, and each new high is an
  // empty refill probe against the global pool's mutex: without this, at
  // this seed, ten of them land after the first quarter. A long-running
  // proxy reaches this residency on its own.
  pool.worker(0).post([] {
    auto& arena = util::BufferPool::local();
    std::vector<util::Bytes> held;
    for (std::size_t size = 64;
         size < 2 * testing::SequencePacketSource::kMaxPacket; size *= 2) {
      for (std::size_t i = 0;
           i < util::BufferPool::Config{}.max_buffers_per_bucket; ++i) {
        held.push_back(arena.acquire(size));
      }
    }
    for (auto& b : held) arena.release(std::move(b));
  });
  pool.worker(0).sync();
  {
    auto sink = std::make_shared<testing::SequencePacketSink>(kSeed);
    const testing::SequenceChecker& checker = sink->checker();
    core::FilterChain chain(
        std::make_shared<core::PacketReaderEndpoint>(
            "head",
            std::make_shared<testing::SequencePacketSource>(kSeed, kBytes)),
        std::make_shared<core::PacketWriterEndpoint>("tail", sink, 4096));
    chain.host_on(pool.worker(0));
    // Configured before start(), so `mid` starts with the rest of the chain
    // and its first arena refill lands in the warm-up, however soon the
    // stream passes its first quarter.
    chain.insert(std::make_shared<core::NullFilter>("mid"), 0);
    chain.start();

    // Warm-up: the worker arena takes its initial batch refills from the
    // parent while the first quarter of the stream flows.
    ASSERT_TRUE(eventually([&] { return checker.received() >= kBytes / 4; },
                           30'000ms));
    const std::uint64_t global_locks_before =
        util::default_pool().lock_acquires();

    // Steady state: the remaining three quarters must complete with ZERO
    // acquisitions of the global pool's mutex — every buffer cycles
    // through the worker's own arena.
    ASSERT_TRUE(eventually([&] { return checker.received() == kBytes; },
                           30'000ms));
    const std::uint64_t global_locks_after =
        util::default_pool().lock_acquires();
    EXPECT_EQ(global_locks_after, global_locks_before)
        << "steady-state data path touched the global pool "
        << (global_locks_after - global_locks_before) << " times";

    chain.drain_shutdown();
    EXPECT_TRUE(checker.clean()) << checker.report();
  }
  pool.stop();
}

// ---------------------------------------------------------------------------
// Live fec(n,k) insert / retune / remove on the worker arena

TEST(WorkerScaling, LedgerExactAcrossLiveFecRetuneWhilePoolHosted) {
  constexpr std::uint32_t kPackets = 5000;
  constexpr std::uint64_t kSeed = 0xfec7e55ULL;
  core::WorkerPool pool(2);
  {
    HostedChain h(pool.next());
    // Decoder sits permanently; the encoder comes, retunes, and goes.
    h.chain->insert(std::make_shared<filters::FecDecodeFilter>(), 0);

    std::thread producer([&] {
      for (std::uint32_t i = 0; i < kPackets; ++i) {
        h.source->push(testing::make_stamped_packet(kSeed, i, 200));
        if (i % 193 == 0) std::this_thread::yield();
      }
      h.source->finish();
    });

    // Control schedule: insert fec(6,4), retune to (8,6) then (4,2) live
    // (applied at group boundaries), then remove — eight full cycles while
    // packets stream through the worker.
    for (int round = 0; round < 8; ++round) {
      h.chain->insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
      EXPECT_TRUE(h.chain->set_param(0, "n", "8"));
      EXPECT_TRUE(h.chain->set_param(0, "k", "6"));
      std::this_thread::yield();
      // Shrinking keeps k <= n at every step: k first, then n.
      EXPECT_TRUE(h.chain->set_param(0, "k", "2"));
      EXPECT_TRUE(h.chain->set_param(0, "n", "4"));
      std::this_thread::yield();
      h.chain->remove(0);  // flushes any partial group as a short group
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

    h.chain->drain_shutdown();
  }
  pool.stop();
}

// ---------------------------------------------------------------------------
// Pinned-seed stress schedule on the per-worker pool path

TEST(WorkerScaling, PinnedSeedStressScheduleOnWorkerArena) {
  // A deterministic (seed-pinned) schedule interleaving packet production
  // with randomized control ops and payload sizes. Reproducible: any
  // failure replays from the seed alone.
  constexpr std::uint32_t kPackets = 4000;
  constexpr std::uint64_t kSeed = 0x5ca1ab1eULL;
  core::WorkerPool pool(2);
  core::EventLoop& host = pool.next();
  {
    HostedChain h(host);

    util::Rng rng(kSeed);
    std::uint32_t produced = 0;
    while (produced < kPackets) {
      // Burst of 1..64 packets with payloads spanning the pool's size
      // classes (8..1500 bytes, u32 stamp + pattern).
      const std::uint32_t burst =
          1 + static_cast<std::uint32_t>(rng.next_u64() % 64);
      for (std::uint32_t i = 0; i < burst && produced < kPackets; ++i) {
        const std::size_t size = 8 + rng.next_u64() % 1493;
        h.source->push(testing::make_stamped_packet(kSeed, produced++, size));
      }
      // Random control op against the live chain.
      switch (rng.next_u64() % 4) {
        case 0:
          h.chain->insert(std::make_shared<PassThroughPacketFilter>(
                              "s" + std::to_string(produced)),
                          h.chain->size() == 0
                              ? 0
                              : rng.next_u64() % (h.chain->size() + 1));
          break;
        case 1:
          if (h.chain->size() > 0) h.chain->remove(rng.next_u64() % h.chain->size());
          break;
        case 2:
          if (h.chain->size() > 1) {
            h.chain->reorder(rng.next_u64() % h.chain->size(),
                             rng.next_u64() % h.chain->size());
          }
          break;
        default:
          std::this_thread::yield();
          break;
      }
    }
    h.source->finish();
    ASSERT_TRUE(h.sink->wait_for(kPackets, /*timeout_ms=*/60'000));

    testing::PacketLedger ledger(kSeed, kPackets);
    for (const auto& p : h.sink->packets()) ledger.record(p);
    EXPECT_EQ(ledger.ok(), kPackets);
    EXPECT_EQ(ledger.lost(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_EQ(ledger.reordered(), 0u);
    EXPECT_EQ(ledger.corrupt(), 0u);

    // The schedule ran on the worker's arena: its pool did real work.
    EXPECT_GT(host.pool().stats().hits + host.pool().stats().misses, 0u);

    h.chain->drain_shutdown();
  }
  pool.stop();
}

}  // namespace
}  // namespace rapidware
