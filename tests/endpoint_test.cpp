// Dedicated coverage for core/endpoint.{h,cpp}: the bridge filters between
// detachable streams and the outside world. Exercises the EOF, partial-
// write, and close-while-blocked paths that the integration tests only hit
// incidentally.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "testing/fault_injector.h"
#include "testing/sequence_stream.h"
#include "util/bytes.h"

namespace rapidware {
namespace {

using core::ByteReaderEndpoint;
using core::ByteWriterEndpoint;
using core::CollectingPacketSink;
using core::FilterChain;
using core::PacketReaderEndpoint;
using core::PacketWriterEndpoint;
using core::QueuePacketSource;

/// ByteSink that records every write call (size sequence + content).
struct RecordingSink final : util::ByteSink {
  void write(util::ByteSpan in) override { try_write_some(in); }
  bool pollable() const noexcept override { return true; }
  std::size_t try_write_some(util::ByteSpan in) override {
    data.insert(data.end(), in.begin(), in.end());
    write_sizes.push_back(in.size());
    return in.size();
  }
  void flush() override { ++flushes; }

  util::Bytes data;
  std::vector<std::size_t> write_sizes;
  int flushes = 0;
};

/// ByteSink that accepts nothing until opened; models a slow or stuck
/// downstream consumer. A refused write arms the ready watcher, which
/// open() fires.
class GatedSink final : public util::ByteSink {
 public:
  void write(util::ByteSpan) override {
    ADD_FAILURE() << "the endpoint's drive never writes blocking";
  }
  bool pollable() const noexcept override { return true; }
  void set_ready_watcher(util::ReadyWatcher* watcher) override {
    std::lock_guard lk(mu_);
    watcher_ = watcher;
  }
  std::size_t try_write_some(util::ByteSpan in) override {
    std::lock_guard lk(mu_);
    ++writes_started_;
    started_cv_.notify_all();
    if (!open_) {
      armed_ = true;
      return 0;
    }
    data_.insert(data_.end(), in.begin(), in.end());
    return in.size();
  }

  void open() {
    std::lock_guard lk(mu_);
    open_ = true;
    if (armed_ && watcher_ != nullptr) watcher_->on_io_ready();
    armed_ = false;
  }

  bool wait_first_write(std::int64_t timeout_ms) {
    std::unique_lock lk(mu_);
    return started_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                [&] { return writes_started_ > 0; });
  }

  util::Bytes data() const {
    std::lock_guard lk(mu_);
    return data_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable started_cv_;
  util::ReadyWatcher* watcher_ = nullptr;
  bool open_ = false;
  bool armed_ = false;
  int writes_started_ = 0;
  util::Bytes data_;
};

// ---------------------------------------------------------------------------
// EOF paths

TEST(Endpoint, ByteEndpointsCarryAFiniteStreamToEOF) {
  const std::uint64_t seed = 0xe0fULL;
  auto generator = std::make_shared<testing::SequenceGenerator>(seed, 10'000);
  auto checker = std::make_shared<testing::SequenceChecker>(seed);
  FilterChain chain(
      std::make_shared<ByteReaderEndpoint>("in", generator, 256),
      std::make_shared<ByteWriterEndpoint>("out", checker, 1024));
  chain.start();
  chain.drain_shutdown();

  EXPECT_EQ(generator->produced(), 10'000u);
  EXPECT_EQ(checker->received(), 10'000u);
  EXPECT_TRUE(checker->clean()) << checker->report();
}

TEST(Endpoint, EmptySourceReportsImmediateEOF) {
  auto generator = std::make_shared<testing::SequenceGenerator>(1, 0);
  auto sink = std::make_shared<RecordingSink>();
  FilterChain chain(std::make_shared<ByteReaderEndpoint>("in", generator),
                    std::make_shared<ByteWriterEndpoint>("out", sink));
  chain.start();
  chain.drain_shutdown();
  EXPECT_TRUE(sink->data.empty());
  EXPECT_EQ(sink->flushes, 1);  // EOF still flushes the sink exactly once
}

TEST(Endpoint, PacketEndpointsDeliverEverythingThenSignalEnd) {
  auto source = std::make_shared<QueuePacketSource>();
  auto sink = std::make_shared<CollectingPacketSink>();
  auto reader = std::make_shared<PacketReaderEndpoint>("in", source);
  auto writer = std::make_shared<PacketWriterEndpoint>("out", sink);
  FilterChain chain(reader, writer);
  chain.start();

  std::vector<util::Bytes> sent;
  for (std::uint32_t i = 0; i < 50; ++i) {
    sent.push_back(testing::make_stamped_packet(7, i, 32 + i));
    source->push(sent.back());
  }
  source->finish();
  ASSERT_TRUE(sink->wait_for(50));
  // end-of-stream reaches the sink once the chain closes the stream (the
  // reader endpoint exiting does not itself close its DOS).
  chain.shutdown();
  EXPECT_TRUE(sink->ended());
  EXPECT_EQ(sink->packets(), sent);
  EXPECT_EQ(reader->packets_read(), 50u);
  EXPECT_EQ(writer->packets_written(), 50u);
}

TEST(Endpoint, InterruptStopsAPacketReaderBlockedOnItsSource) {
  auto source = std::make_shared<QueuePacketSource>();
  auto sink = std::make_shared<CollectingPacketSink>();
  FilterChain chain(std::make_shared<PacketReaderEndpoint>("in", source),
                    std::make_shared<PacketWriterEndpoint>("out", sink));
  chain.start();
  // Nothing was ever pushed: the reader's poll came up empty and it waits
  // for the source. shutdown() interrupts it and must complete rather
  // than hang.
  chain.shutdown();
  EXPECT_TRUE(sink->ended());
  EXPECT_EQ(sink->count(), 0u);
}

TEST(Endpoint, ByteEndpointsRejectStreamsThatCannotPoll) {
  // A worker drive cannot wait in a blocking read_some()/write(): a byte
  // endpoint over such a stream is refused up front, naming the endpoint.
  struct BlockingSource final : util::ByteSource {
    std::size_t read_some(util::MutableByteSpan) override { return 0; }
  };
  struct BlockingSink final : util::ByteSink {
    void write(util::ByteSpan) override {}
  };
  try {
    ByteReaderEndpoint("legacy-in", std::make_shared<BlockingSource>());
    ADD_FAILURE() << "accepted a source that cannot poll";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("legacy-in"), std::string::npos)
        << e.what();
  }
  try {
    ByteWriterEndpoint("legacy-out", std::make_shared<BlockingSink>());
    ADD_FAILURE() << "accepted a sink that cannot poll";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("legacy-out"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Partial writes

TEST(Endpoint, FragmentedWritesReassembleByteExact) {
  // A fault injector fragments every sink write into random smaller calls;
  // the delivered byte sequence must be unchanged.
  const std::uint64_t seed = 0xf4a9ULL;
  auto inner = std::make_shared<RecordingSink>();
  auto faults = std::make_shared<testing::FaultInjector>(
      seed, testing::FaultPlan{.fragment_write_p = 1.0});
  auto sink = std::make_shared<testing::FaultyByteSink>(inner, faults);
  auto generator = std::make_shared<testing::SequenceGenerator>(seed, 8'192);
  FilterChain chain(
      std::make_shared<ByteReaderEndpoint>("in", generator, 512),
      std::make_shared<ByteWriterEndpoint>("out", sink, 1024));
  chain.start();
  chain.drain_shutdown();

  ASSERT_EQ(inner->data.size(), 8'192u);
  EXPECT_GT(inner->write_sizes.size(), 16u);  // fragmentation really happened
  testing::SequenceChecker verify(seed);
  verify.write(inner->data);
  EXPECT_TRUE(verify.clean()) << verify.report();
}

TEST(Endpoint, ShortReadsFromTheSourceNeverChangeTheStream) {
  const std::uint64_t seed = 0x5047ULL;
  auto generator = std::make_shared<testing::SequenceGenerator>(seed, 8'192);
  auto faults = std::make_shared<testing::FaultInjector>(
      seed, testing::FaultPlan{.short_read_p = 1.0});
  auto source = std::make_shared<testing::FaultyByteSource>(generator, faults);
  auto checker = std::make_shared<testing::SequenceChecker>(seed);
  FilterChain chain(std::make_shared<ByteReaderEndpoint>("in", source, 512),
                    std::make_shared<ByteWriterEndpoint>("out", checker));
  chain.start();
  chain.drain_shutdown();

  EXPECT_GT(faults->short_reads(), 0u);
  EXPECT_EQ(checker->received(), 8'192u);
  EXPECT_TRUE(checker->clean()) << checker->report();
}

// ---------------------------------------------------------------------------
// Close-while-blocked paths

TEST(Endpoint, CloseWhileWriterBlockedOnAStuckSinkUnblocksIt) {
  // The writer endpoint's sink is stuck; its ring fills; the upstream
  // writer blocks mid-write. Closing the upstream DOS must wake that
  // writer with BrokenPipe, and opening the sink must let the endpoint
  // drain the buffered prefix and exit on EOF.
  core::WorkerPool pool(1);
  auto sink = std::make_shared<GatedSink>();
  auto endpoint = std::make_shared<ByteWriterEndpoint>("out", sink, 64);
  core::DetachableOutputStream dos;
  dos.connect(endpoint->dis());
  endpoint->start(pool.worker(0));

  std::atomic<bool> threw{false};
  std::thread writer([&] {
    util::Bytes big(64 * 1024);
    testing::fill_pattern(3, 0, big);
    try {
      dos.write(big);
    } catch (const core::BrokenPipe&) {
      threw.store(true);
    }
  });

  ASSERT_TRUE(sink->wait_first_write(10'000));  // endpoint parked on sink
  // Give the ring time to fill so the writer is genuinely blocked.
  while (endpoint->dis().available() < 64) std::this_thread::yield();
  dos.close();
  writer.join();
  EXPECT_TRUE(threw.load());

  sink->open();      // unstick the sink: its watcher re-drives the endpoint
  endpoint->join();  // endpoint drains the prefix, sees EOF, finishes

  // Whatever was delivered is a byte-exact prefix of what was written.
  const util::Bytes got = sink->data();
  testing::SequenceChecker verify(3);
  verify.write(got);
  EXPECT_TRUE(verify.clean()) << verify.report();
  EXPECT_FALSE(endpoint->running());
}

TEST(Endpoint, ClosingTheInputOfAWriterEndpointEndsItsLoop) {
  core::WorkerPool pool(1);
  auto sink = std::make_shared<RecordingSink>();
  auto endpoint = std::make_shared<ByteWriterEndpoint>("out", sink);
  core::DetachableOutputStream dos;
  dos.connect(endpoint->dis());
  endpoint->start(pool.worker(0));
  // The endpoint waits on an empty ring. Abandoning the reader side ends
  // the run (the poll reports end-of-stream).
  endpoint->dis().close();
  endpoint->join();
  EXPECT_FALSE(endpoint->running());
  EXPECT_EQ(sink->flushes, 1);
}

}  // namespace
}  // namespace rapidware
