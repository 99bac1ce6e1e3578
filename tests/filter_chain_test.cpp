// Tests for Filter, endpoints, and FilterChain: lifecycle, hot insertion /
// removal / reordering on a running stream, flush-on-detach, and the
// end-to-end integrity property under randomized chain mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/control.h"
#include "core/endpoint.h"
#include "core/filter.h"
#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"
#include "testing/sequence_stream.h"
#include "util/framing.h"
#include "util/rng.h"
#include "util/serial.h"

namespace rapidware::core {
namespace {

using util::Bytes;
using util::to_bytes;
using util::to_string;

/// Packet filter that appends a tag byte to every packet, so tests can
/// verify which filters a packet traversed and in which order.
class TagFilter final : public PacketFilter {
 public:
  explicit TagFilter(std::uint8_t tag)
      : PacketFilter("tag-" + std::to_string(tag)), tag_(tag) {}

 protected:
  void on_packet(Bytes packet) override {
    packet.push_back(tag_);
    emit(packet);
  }

 private:
  std::uint8_t tag_;
};

/// Packet filter that buffers packets into groups of `k` and emits them only
/// when the group fills (or on flush) — the FEC encoder's buffering shape.
class GroupingFilter final : public PacketFilter {
 public:
  explicit GroupingFilter(std::size_t k) : PacketFilter("group"), k_(k) {}

 protected:
  void on_packet(Bytes packet) override {
    held_.push_back(std::move(packet));
    if (held_.size() == k_) emit_held();
  }

  void on_flush() override { emit_held(); }

 private:
  void emit_held() {
    for (auto& p : held_) emit(p);
    held_.clear();
  }

  std::size_t k_;
  std::vector<Bytes> held_;
};

/// Forwards every packet unchanged (move-through, zero-copy).
class PassThroughPacketFilter final : public PacketFilter {
 public:
  explicit PassThroughPacketFilter(
      std::size_t capacity = DetachableInputStream::kDefaultCapacity)
      : PacketFilter("pass", capacity) {}

 protected:
  void on_packet(Bytes packet) override { emit(std::move(packet)); }
};

/// Pass-through packet filter whose counters a test can read.
class CountingPassThrough final : public PacketFilter {
 public:
  CountingPassThrough() : PacketFilter("counted") {}
  using PacketFilter::packets_in;
  using PacketFilter::packets_out;

 protected:
  void on_packet(Bytes packet) override { emit(std::move(packet)); }
};

/// Packet filter whose every packet kills its drive.
class ThrowingFilter final : public PacketFilter {
 public:
  ThrowingFilter() : PacketFilter("bomb") {}

 protected:
  void on_packet(Bytes) override { throw std::runtime_error("planted"); }
};

/// Pass-through packet filter that reads one packet per `gap` of loop time
/// (the pacing shape of filters::ThrottleFilter) until release().
class PacedFilter final : public PacketFilter {
 public:
  explicit PacedFilter(util::Micros gap) : PacketFilter("paced"), gap_(gap) {}
  void release() { gap_.store(0); }

 protected:
  util::Micros input_delay() override {
    if (!owed_) return 0;
    owed_ = false;
    return gap_.load();
  }
  void on_packet(Bytes packet) override {
    owed_ = true;
    emit(std::move(packet));
  }

 private:
  std::atomic<util::Micros> gap_;
  bool owed_ = false;  // loop thread only
};

/// Byte filter that uppercases ASCII.
class UppercaseFilter final : public ByteFilter {
 public:
  UppercaseFilter() : ByteFilter("upper") {}

 protected:
  Bytes process(Bytes in) override {
    for (auto& b : in) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return in;
  }
};

Bytes numbered_packet(std::uint32_t n, std::size_t extra = 0) {
  util::Writer w;
  w.u32(n);
  for (std::size_t i = 0; i < extra; ++i) w.u8(static_cast<std::uint8_t>(i));
  return w.take();
}

std::uint32_t packet_number(const Bytes& packet) {
  util::Reader r(packet);
  return r.u32();
}

struct Harness {
  std::shared_ptr<QueuePacketSource> source =
      std::make_shared<QueuePacketSource>();
  std::shared_ptr<CollectingPacketSink> sink =
      std::make_shared<CollectingPacketSink>();
  std::shared_ptr<FilterChain> chain;

  Harness() {
    chain = std::make_shared<FilterChain>(
        std::make_shared<PacketReaderEndpoint>("in", source),
        std::make_shared<PacketWriterEndpoint>("out", sink));
  }
};

// ---------------------------------------------------------------------------
// Null proxy

TEST(FilterChain, NullProxyForwardsPackets) {
  Harness h;
  h.chain->start();
  for (std::uint32_t i = 0; i < 100; ++i) h.source->push(numbered_packet(i));
  ASSERT_TRUE(h.sink->wait_for(100));
  h.source->finish();
  h.chain->shutdown();

  const auto packets = h.sink->packets();
  ASSERT_EQ(packets.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(packet_number(packets[i]), i);
}

TEST(FilterChain, StartTwiceThrows) {
  Harness h;
  h.chain->start();
  EXPECT_THROW(h.chain->start(), StreamError);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, ShutdownIsIdempotent) {
  Harness h;
  h.chain->start();
  h.source->finish();
  h.chain->shutdown();
  EXPECT_NO_THROW(h.chain->shutdown());
}

TEST(FilterChain, ShutdownDeliversEverythingInFlight) {
  Harness h;
  h.chain->start();
  for (std::uint32_t i = 0; i < 500; ++i) h.source->push(numbered_packet(i, 100));
  h.source->finish();
  h.chain->shutdown();
  EXPECT_EQ(h.sink->count(), 500u);
  EXPECT_TRUE(h.sink->ended());
}

// ---------------------------------------------------------------------------
// Hot insertion

TEST(FilterChain, InsertOnIdleChain) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<TagFilter>(7), 0);
  EXPECT_EQ(h.chain->size(), 1u);
  EXPECT_EQ(h.chain->names(), std::vector<std::string>{"tag-7"});

  h.source->push(numbered_packet(1));
  ASSERT_TRUE(h.sink->wait_for(1));
  const auto packets = h.sink->packets();
  EXPECT_EQ(packets[0].back(), 7);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, InsertMidStreamLosesNothing) {
  Harness h;
  h.chain->start();
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> pushed{0};
  std::thread producer([&] {
    std::uint32_t n = 0;
    while (!stop.load()) {
      h.source->push(numbered_packet(n++));
      pushed.store(n);
    }
    h.source->finish();
  });
  // A loaded host may not run the producer for a while: wait for its
  // pushes instead of trusting the sleeps.
  const auto wait_pushed = [&](std::uint32_t count) {
    while (pushed.load() < count) std::this_thread::yield();
  };

  // Insert while traffic is flowing.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  wait_pushed(1);
  h.chain->insert(std::make_shared<TagFilter>(1), 0);
  // Packet number at_insert + 1 is pushed after this read, so after the
  // insert: waiting for it makes the stream's last packet carry the tag.
  const std::uint32_t at_insert = pushed.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  wait_pushed(at_insert + 2);
  stop = true;
  producer.join();
  h.chain->shutdown();

  // Every packet arrives exactly once, in order; later ones carry the tag.
  const auto packets = h.sink->packets();
  ASSERT_GT(packets.size(), 0u);
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packet_number(packets[i]), i);
  }
  EXPECT_EQ(packets.back().size(), 5u);  // u32 + tag byte
}

// A splice waits for no ring to drain: an insert in front of a stage whose
// input ring is backed up behind its pacing returns at once, and the stream
// stays whole and in order across it.
TEST(FilterChain, InsertInFrontOfABackedUpStageReturnsAtOnce) {
  Harness h;
  auto paced = std::make_shared<PacedFilter>(20'000);  // 50 packets/s
  h.chain->append(paced);
  h.chain->start();
  constexpr std::uint32_t kPackets = 200;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    h.source->push(numbered_packet(i, 1000));
  }
  // The paced stage's ring fills to its 64 KiB bound: over a second of
  // pacing that a draining pause() would have waited out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (paced->dis().available() < 60'000) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  h.chain->insert(std::make_shared<TagFilter>(9), 0);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::milliseconds(200))
      << "the insert waited for the paced stage's ring to drain";

  paced->release();
  h.source->finish();
  h.chain->shutdown();
  // Every packet once, in order: what the ring held before the insert
  // untagged, everything after it through the new stage.
  const auto packets = h.sink->packets();
  ASSERT_EQ(packets.size(), kPackets);
  std::uint32_t untagged = 0;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(packet_number(packets[i]), i);
    const bool tagged = packets[i].size() == 4 + 1000 + 1;
    if (!tagged) {
      EXPECT_EQ(untagged, i) << "untagged packet after a tagged one";
      ++untagged;
    }
  }
  EXPECT_GT(untagged, 0u);
  EXPECT_LT(untagged, kPackets);
}

TEST(FilterChain, InsertionPositionsComposeInOrder) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<TagFilter>(2), 0);
  h.chain->insert(std::make_shared<TagFilter>(1), 0);   // before tag-2
  h.chain->insert(std::make_shared<TagFilter>(3), 2);   // after tag-2
  EXPECT_EQ(h.chain->names(),
            (std::vector<std::string>{"tag-1", "tag-2", "tag-3"}));

  h.source->push(numbered_packet(0));
  ASSERT_TRUE(h.sink->wait_for(1));
  const auto p = h.sink->packets()[0];
  ASSERT_EQ(p.size(), 7u);
  EXPECT_EQ(p[4], 1);  // traversal order tag-1, tag-2, tag-3
  EXPECT_EQ(p[5], 2);
  EXPECT_EQ(p[6], 3);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, InsertOutOfRangeThrows) {
  Harness h;
  h.chain->start();
  EXPECT_THROW(h.chain->insert(std::make_shared<TagFilter>(1), 1),
               std::out_of_range);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, PreStartConfigurationWiresAtStart) {
  // Filters inserted before start() are wired when the chain starts —
  // the composite/pipeline construction path.
  Harness h;
  h.chain->insert(std::make_shared<TagFilter>(1), 0);
  h.chain->insert(std::make_shared<TagFilter>(2), 1);
  auto removed = h.chain->remove(1);  // pre-start removal is bookkeeping
  EXPECT_EQ(removed->name(), "tag-2");
  EXPECT_EQ(h.chain->size(), 1u);

  h.chain->start();
  h.source->push(numbered_packet(0));
  ASSERT_TRUE(h.sink->wait_for(1));
  const auto p = h.sink->packets()[0];
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[4], 1);  // traversed tag-1
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, InsertNullThrows) {
  Harness h;
  h.chain->start();
  EXPECT_THROW(h.chain->insert(nullptr, 0), std::invalid_argument);
  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Hot removal

TEST(FilterChain, RemoveRestoresPassThrough) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<TagFilter>(9), 0);
  h.source->push(numbered_packet(0));
  ASSERT_TRUE(h.sink->wait_for(1));

  auto removed = h.chain->remove(0);
  EXPECT_EQ(removed->name(), "tag-9");
  EXPECT_EQ(h.chain->size(), 0u);
  EXPECT_FALSE(removed->running());

  h.source->push(numbered_packet(1));
  ASSERT_TRUE(h.sink->wait_for(2));
  EXPECT_EQ(h.sink->packets()[1].size(), 4u);  // no tag anymore
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, RemoveFlushesBufferedState) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<GroupingFilter>(4), 0);

  // Push 2 packets: the grouping filter holds them (group not full).
  h.source->push(numbered_packet(0));
  h.source->push(numbered_packet(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(h.sink->count(), 0u);

  // Removal must flush the partial group downstream, not discard it.
  h.chain->remove(0);
  ASSERT_TRUE(h.sink->wait_for(2));
  EXPECT_EQ(packet_number(h.sink->packets()[0]), 0u);
  EXPECT_EQ(packet_number(h.sink->packets()[1]), 1u);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, RemovedFilterCanBeReinserted) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<TagFilter>(5), 0);
  auto f = h.chain->remove(0);
  h.chain->insert(f, 0);  // restartable after soft EOF

  h.source->push(numbered_packet(0));
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(h.sink->packets()[0].back(), 5);
  h.source->finish();
  h.chain->shutdown();
}

TEST(FilterChain, RemoveOutOfRangeThrows) {
  Harness h;
  h.chain->start();
  EXPECT_THROW(h.chain->remove(0), std::out_of_range);
  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Reorder

TEST(FilterChain, ReorderSwapsTraversalOrder) {
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<TagFilter>(1), 0);
  h.chain->insert(std::make_shared<TagFilter>(2), 1);

  h.chain->reorder(0, 1);
  EXPECT_EQ(h.chain->names(), (std::vector<std::string>{"tag-2", "tag-1"}));

  h.source->push(numbered_packet(0));
  ASSERT_TRUE(h.sink->wait_for(1));
  const auto p = h.sink->packets()[0];
  EXPECT_EQ(p[4], 2);
  EXPECT_EQ(p[5], 1);
  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Byte filters in chains

TEST(FilterChain, ByteFilterTransformsStream) {
  // A byte stage between the packet endpoints transforms the framed stream,
  // frame headers included. The headers come through unchanged: the magic
  // is "WR" (0x57 0x52), and a payload shorter than 97 bytes has no length
  // byte in 'a'..'z'. Inserting before the push splices the filter in
  // before any data flows.
  Harness h;
  h.chain->start();
  h.chain->insert(std::make_shared<UppercaseFilter>(), 0);
  h.source->push(to_bytes("hello rapidware"));
  h.source->finish();
  h.chain->shutdown();
  const auto packets = h.sink->packets();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(to_string(packets[0]), "HELLO RAPIDWARE");
}

// ---------------------------------------------------------------------------
// Filter parameters

TEST(Filter, SetParamDefaultRejects) {
  NullFilter f;
  EXPECT_FALSE(f.set_param("anything", "1"));
  EXPECT_TRUE(f.params().empty());
}

TEST(Filter, StartTwiceThrows) {
  Harness h;
  h.chain->start();
  auto f = std::make_shared<TagFilter>(1);
  h.chain->insert(f, 0);
  EXPECT_THROW(f->start(*h.chain->host()), StreamError);
  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Packet accounting on failure paths: STATS counts a packet as sent only
// once it landed downstream, and shows a stage that died.

TEST(Filter, PacketLostToAClosedReaderIsNotCountedAsSent) {
  WorkerPool pool(1);
  CountingPassThrough filter;
  DetachableInputStream downstream;
  filter.dos().connect(downstream);
  downstream.close();  // its emit throws BrokenPipe, which ends the run
  DetachableOutputStream upstream;
  upstream.connect(filter.dis());
  filter.start(pool.worker(0));
  ASSERT_TRUE(util::try_write_frame(upstream, to_bytes("lost")));
  filter.join();
  EXPECT_EQ(filter.packets_in(), 1u);
  EXPECT_EQ(filter.packets_out(), 0u);
}

TEST(Filter, ParkedPacketLostToAHardCloseIsNotCountedAsSent) {
  WorkerPool pool(1);
  CountingPassThrough filter;
  DetachableInputStream downstream(16);
  filter.dos().connect(downstream);
  // 10 of the 16 bytes are taken and nobody reads: the 14-byte frame the
  // filter emits parks behind the full ring.
  ASSERT_EQ(filter.dos().try_write_some(Bytes(10, 0x11)), 10u);
  DetachableOutputStream upstream;
  upstream.connect(filter.dis());
  filter.start(pool.worker(0));
  ASSERT_TRUE(util::try_write_frame(upstream, to_bytes("parked!!")));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (filter.packets_in() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  filter.dos().close();  // the parked packet is lost with the output
  filter.join();
  EXPECT_EQ(filter.packets_in(), 1u);
  EXPECT_EQ(filter.packets_out(), 0u);
  EXPECT_EQ(downstream.available(), 10u);
}

TEST(FilterChain, FilterThatDiesShowsInStatsAsAFailure) {
  obs::Registry registry;  // outlives the chain, which unbinds into it
  Harness h;
  h.chain->bind_metrics(registry, "p/chain");
  auto bomb = std::make_shared<ThrowingFilter>();
  h.chain->insert(bomb, 0);
  h.chain->start();
  std::string stats = obs::render(registry.snapshot("p/chain"));
  EXPECT_NE(stats.find("p/chain/bomb/failures=0"), std::string::npos) << stats;

  h.source->push(numbered_packet(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bomb->running() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(bomb->running());
  stats = obs::render(registry.snapshot("p/chain"));
  EXPECT_NE(stats.find("p/chain/bomb/failures=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("p/chain/in/failures=0"), std::string::npos) << stats;
  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Property: randomized chain mutations never lose or reorder packets

struct ChurnParam {
  int mutations;
  std::uint64_t seed;
};

class ChainChurnTest : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(ChainChurnTest, RandomInsertRemoveReorderPreservesStream) {
  const auto param = GetParam();
  Harness h;
  h.chain->start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> produced{0};
  std::thread producer([&] {
    std::uint32_t n = 0;
    while (!stop.load()) {
      h.source->push(numbered_packet(n++));
      produced.store(n);
      if (n % 64 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    h.source->finish();
  });

  util::Rng rng(param.seed);
  std::uint8_t next_tag = 1;
  for (int i = 0; i < param.mutations; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(rng.next_below(800)));
    const std::size_t size = h.chain->size();
    const auto action = rng.next_below(3);
    if (action == 0 || size == 0) {
      if (size < 6) {
        h.chain->insert(std::make_shared<TagFilter>(next_tag++),
                        rng.next_below(size + 1));
      }
    } else if (action == 1) {
      h.chain->remove(rng.next_below(size));
    } else if (size >= 2) {
      h.chain->reorder(rng.next_below(size), rng.next_below(size));
    }
  }

  stop = true;
  producer.join();
  h.chain->shutdown();

  const auto packets = h.sink->packets();
  ASSERT_EQ(packets.size(), produced.load());
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(packet_number(packets[i]), i) << "at packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ChurnSweep, ChainChurnTest,
                         ::testing::Values(ChurnParam{20, 1}, ChurnParam{40, 2},
                                           ChurnParam{60, 3}, ChurnParam{80, 4}),
                         [](const auto& info) {
                           return "mutations" + std::to_string(info.param.mutations) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Atomic snapshots (regression: stats paths reading chain state lock-by-lock)

// list() must be one atomic snapshot. The old introspection path called
// size() then at(i) — two separate lock acquisitions — so a remove() landing
// between them threw out_of_range for a request that was valid when it
// started. Hammer snapshots against concurrent insert/remove and require
// every one to be internally consistent and exception-free.
TEST(FilterChain, ListSnapshotSurvivesConcurrentMutation) {
  Harness h;
  for (int i = 0; i < 4; ++i) {
    h.chain->insert(std::make_shared<TagFilter>(static_cast<std::uint8_t>(i)),
                    h.chain->size());
  }

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    util::Rng rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      // Keep the size oscillating across the readers' snapshot points.
      h.chain->remove(rng.next_below(h.chain->size()));
      h.chain->insert(std::make_shared<TagFilter>(9), 0);
    }
  });

  auto manager = ControlManager::local(std::make_shared<ControlServer>(
      h.chain, &global_registry(), &obs::registry()));
  for (int i = 0; i < 2'000; ++i) {
    // Chain-level snapshot: iterating it must never hit a stale index.
    const auto filters = h.chain->list();
    for (const auto& f : filters) EXPECT_FALSE(f->name().empty());
    // Control-protocol path (the one that used size() + at(i)).
    const auto infos = manager.list_chain();
    for (const auto& info : infos) EXPECT_FALSE(info.name.empty());
  }

  stop.store(true, std::memory_order_release);
  mutator.join();
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state (the pool hit-rate test buffer_pool.h
// promises): once the chain's recycle pool — the hosting worker's arena —
// is warm, a pass-through packet hop serves every per-packet buffer from
// the free list; the allocator is out of the loop. Measured at the pool:
// the miss counter must not move during the steady-state window.

TEST(FilterChain, SteadyStatePassThroughHitsPoolEveryTime) {
  Harness h;
  h.chain->insert(std::make_shared<PassThroughPacketFilter>(), 0);
  h.chain->insert(std::make_shared<PassThroughPacketFilter>(), 1);
  h.chain->start();

  const Bytes packet(512, 0x5c);
  // Paced batches: steady state means a bounded number of packets in
  // flight (a flood can outrun the pool's per-bucket retention cap and
  // spill to the allocator by design — that is load shedding, not a leak).
  constexpr std::size_t kBatch = 32, kWarmupBatches = 8, kSteadyBatches = 60;
  std::size_t sent = 0;
  const auto pump = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < kBatch; ++i) h.source->push(packet);
      sent += kBatch;
      ASSERT_TRUE(h.sink->wait_for(sent));
    }
  };
  pump(kWarmupBatches);  // populate the pool's 512-byte class

  // Measure the pool the chain actually recycles through: the hosting
  // worker's arena.
  util::BufferPool& pool = h.chain->recycle_pool();
  const auto warm = pool.stats();
  pump(kSteadyBatches);
  const auto done = pool.stats();
  constexpr std::size_t kSteady = kBatch * kSteadyBatches;

  // Every steady-state acquire (FrameReader in both endpoints and both
  // pass-through hops) was served from the free list.
  EXPECT_EQ(done.misses, warm.misses);
  // And the hop count is real: >= 3 acquires per packet actually happened
  // (reader-endpoint frames come from the source, so they release only).
  EXPECT_GE(done.hits - warm.hits, kSteady * 3);

  h.source->finish();
  h.chain->shutdown();
}

// ---------------------------------------------------------------------------
// Frames at and beyond the ring capacity: a frame (payload + 6-byte header)
// that is one byte short of, exactly, or past the size of every stage's
// ring, through 0 and 2 stages, across a live insert and remove. A frame
// larger than a ring waits for it to drain and raises its bound once. The
// burst cases push many small frames at once into 64 KiB-bound rings, whose
// storage starts at 4 KiB and doubles while the splices run. None may be
// lost, torn, duplicated or reordered.

struct FrameSweepParam {
  std::size_t ring;     // capacity of every stage's input ring
  std::size_t payload;  // frame payload bytes
  std::size_t filters;  // pass-through stages configured before start
  std::uint32_t burst = 8;  // frames pushed at once, in each of 3 phases
};

class FrameSizeSweep : public ::testing::TestWithParam<FrameSweepParam> {};

TEST_P(FrameSizeSweep, ByteExactAcrossLiveSplice) {
  const FrameSweepParam p = GetParam();
  const std::uint32_t kPackets = 3 * p.burst;
  const std::uint64_t seed = 0xf5a3e000ULL ^ (p.ring * 31 + p.payload);
  auto source = std::make_shared<QueuePacketSource>();
  auto sink = std::make_shared<CollectingPacketSink>();
  FilterChain chain(
      std::make_shared<PacketReaderEndpoint>("in", source),
      std::make_shared<PacketWriterEndpoint>("out", sink, p.ring));
  for (std::size_t i = 0; i < p.filters; ++i) {
    chain.append(std::make_shared<PassThroughPacketFilter>(p.ring));
  }
  chain.start();
  const auto push = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t i = from; i < to; ++i) {
      source->push(testing::make_stamped_packet(seed, i, p.payload));
    }
  };

  push(0, p.burst);
  ASSERT_TRUE(sink->wait_for(p.burst / 2, /*timeout_ms=*/30'000));
  const std::size_t mid = p.filters / 2;
  chain.insert(std::make_shared<PassThroughPacketFilter>(p.ring), mid);
  push(p.burst, 2 * p.burst);
  chain.remove(mid);
  push(2 * p.burst, kPackets);
  source->finish();
  ASSERT_TRUE(sink->wait_for(kPackets, /*timeout_ms=*/30'000));
  chain.shutdown();

  // Every ring that carried frames holds storage within its bound (raised
  // to the frame for a frame larger than the ring); the head's own ring is
  // never written.
  const std::size_t bound =
      std::max(p.ring, p.payload + util::kFrameHeaderSize);
  EXPECT_EQ(chain.head().dis().ring_bytes(), 0u);
  std::vector<Filter*> carriers{&chain.tail()};
  for (const auto& stage : chain.list()) carriers.push_back(stage.get());
  for (Filter* stage : carriers) {
    EXPECT_GT(stage->dis().ring_bytes(), 0u) << stage->name();
    EXPECT_LE(stage->dis().ring_bytes(), bound) << stage->name();
  }

  testing::PacketLedger ledger(seed, kPackets);
  for (const auto& packet : sink->packets()) ledger.record(packet);
  EXPECT_EQ(sink->count(), kPackets);
  EXPECT_EQ(ledger.ok(), kPackets);
  EXPECT_EQ(ledger.lost(), 0u);
  EXPECT_EQ(ledger.duplicates(), 0u);
  EXPECT_EQ(ledger.reordered(), 0u);
  EXPECT_EQ(ledger.corrupt(), 0u);
}

std::vector<FrameSweepParam> frame_sweep() {
  std::vector<FrameSweepParam> out;
  for (const std::size_t ring : {std::size_t{1024}, std::size_t{64 * 1024}}) {
    for (const std::size_t payload :
         {ring - 7, ring - 6, ring - 5, ring, 2 * ring}) {
      for (const std::size_t filters : {std::size_t{0}, std::size_t{2}}) {
        out.push_back({ring, payload, filters});
      }
    }
  }
  for (const std::size_t payload : {std::size_t{333}, std::size_t{1500}}) {
    for (const std::size_t filters : {std::size_t{0}, std::size_t{2}}) {
      out.push_back({64 * 1024, payload, filters, /*burst=*/64});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    RingBoundaries, FrameSizeSweep, ::testing::ValuesIn(frame_sweep()),
    [](const ::testing::TestParamInfo<FrameSweepParam>& info) {
      std::string name = "ring" + std::to_string(info.param.ring) +
                         "_payload" + std::to_string(info.param.payload) +
                         "_filters" + std::to_string(info.param.filters);
      if (info.param.burst != 8) {
        name += "_burst" + std::to_string(info.param.burst);
      }
      return name;
    });

}  // namespace
}  // namespace rapidware::core
