// Dedicated coverage for core/endpoint.{h,cpp}: the bridge filters between
// detachable streams and the outside world. Exercises the EOF, interrupt
// and sink-failure paths that the integration tests only hit incidentally.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "testing/sequence_stream.h"
#include "util/bytes.h"
#include "util/framing.h"

namespace rapidware {
namespace {

using core::CollectingPacketSink;
using core::FilterChain;
using core::PacketReaderEndpoint;
using core::PacketWriterEndpoint;
using core::QueuePacketSource;

/// PacketSink counting deliveries and end-of-stream calls. Read the counts
/// only after the writer's run has been joined.
struct CountingSink final : core::PacketSink {
  void deliver(util::ByteSpan) override { ++packets; }
  void on_end() override { ++ends; }

  int packets = 0;
  int ends = 0;
};

// ---------------------------------------------------------------------------
// EOF paths

TEST(Endpoint, EmptySourceReportsImmediateEOF) {
  auto sink = std::make_shared<CountingSink>();
  FilterChain chain(
      std::make_shared<PacketReaderEndpoint>(
          "in", std::make_shared<testing::SequencePacketSource>(1, 0)),
      std::make_shared<PacketWriterEndpoint>("out", sink));
  chain.start();
  chain.drain_shutdown();
  EXPECT_EQ(sink->packets, 0);
  EXPECT_EQ(sink->ends, 1);  // EOF still reaches the sink exactly once
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

// ---------------------------------------------------------------------------
// Sink failure and close paths

TEST(Endpoint, WriterDoesNotCountAPacketItsSinkThrewOn) {
  // The sink throws on its first packet, so it accepted none: STATS must
  // not report the writer delivering a packet it lost.
  struct ThrowingSink final : core::PacketSink {
    void deliver(util::ByteSpan) override {
      throw core::StreamError("sink died");
    }
  };
  core::WorkerPool pool(1);
  auto endpoint = std::make_shared<PacketWriterEndpoint>(
      "out", std::make_shared<ThrowingSink>());
  core::DetachableOutputStream dos;
  dos.connect(endpoint->dis());
  endpoint->start(pool.worker(0));
  util::write_frame(dos, util::to_bytes("lost"));
  endpoint->join();  // the throw ends the run
  EXPECT_EQ(endpoint->packets_written(), 0u);
}

TEST(Endpoint, ClosingTheInputOfAWriterEndpointEndsItsLoop) {
  core::WorkerPool pool(1);
  auto sink = std::make_shared<CountingSink>();
  auto endpoint = std::make_shared<PacketWriterEndpoint>("out", sink);
  core::DetachableOutputStream dos;
  dos.connect(endpoint->dis());
  endpoint->start(pool.worker(0));
  // The endpoint waits on an empty ring. Abandoning the reader side ends
  // the run (the poll reports end-of-stream).
  endpoint->dis().close();
  endpoint->join();
  EXPECT_FALSE(endpoint->running());
  EXPECT_EQ(sink->ends, 1);
}

}  // namespace
}  // namespace rapidware
