// Tests for the paper's core mechanism: detachable streams.
//
// Covers the blocking pipe contract, pause/drain/reconnect semantics, hard
// and soft EOF, error paths, and — most importantly — the integrity
// property: across arbitrary pause/reconnect (splice) cycles under
// concurrent load, the byte sequence observed downstream equals the byte
// sequence written upstream.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/detachable_stream.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/rng.h"
#include "util/serial.h"

namespace rapidware::core {
namespace {

using util::ByteSpan;
using util::Bytes;
using util::to_bytes;
using util::to_string;

Bytes sequential_bytes(std::size_t n, std::uint8_t start = 0) {
  Bytes b(n);
  std::uint8_t v = start;
  for (auto& x : b) x = v++;
  return b;
}

// ---------------------------------------------------------------------------
// Basic pipe behaviour

TEST(DetachableStream, ConnectThenWriteThenRead) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  EXPECT_TRUE(dos.connected());
  EXPECT_TRUE(dis.connected());

  dos.write(to_bytes("hello"));
  EXPECT_EQ(dis.available(), 5u);

  Bytes out(5);
  EXPECT_EQ(dis.read_some(out), 5u);
  EXPECT_EQ(to_string(out), "hello");
}

TEST(DetachableStream, ReadBlocksUntilDataArrives) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);

  std::atomic<bool> got{false};
  std::thread reader([&] {
    Bytes out(3);
    EXPECT_EQ(dis.read_some(out), 3u);
    EXPECT_EQ(to_string(out), "abc");
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  dos.write(to_bytes("abc"));
  reader.join();
  EXPECT_TRUE(got.load());
}

TEST(DetachableStream, WriteBlocksWhenBufferFull) {
  DetachableInputStream dis(8);
  DetachableOutputStream dos;
  connect(dos, dis);

  dos.write(sequential_bytes(8));  // fills the ring
  std::atomic<bool> done{false};
  std::thread writer([&] {
    dos.write(sequential_bytes(4, 8));  // must wait for space
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());

  Bytes out(12);
  std::size_t got = 0;
  while (got < 12) got += dis.read_some(util::MutableByteSpan(out).subspan(got));
  writer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(out, sequential_bytes(12));
}

TEST(DetachableStream, LargeWriteSpansManyRingFillings) {
  DetachableInputStream dis(64);
  DetachableOutputStream dos;
  connect(dos, dis);

  const Bytes payload = sequential_bytes(10'000);
  std::thread writer([&] { dos.write(payload); });

  Bytes received;
  Bytes chunk(37);
  while (received.size() < payload.size()) {
    const std::size_t n = dis.read_some(chunk);
    ASSERT_GT(n, 0u);
    received.insert(received.end(), chunk.begin(),
                    chunk.begin() + static_cast<long>(n));
  }
  writer.join();
  EXPECT_EQ(received, payload);
}

TEST(DetachableStream, AvailableReflectsBufferedBytes) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  EXPECT_EQ(dis.available(), 0u);
  dos.write(sequential_bytes(10));
  EXPECT_EQ(dis.available(), 10u);
  Bytes out(4);
  dis.read_some(out);
  EXPECT_EQ(dis.available(), 6u);
}

TEST(DetachableStream, ByteCountersTrackTraffic) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(sequential_bytes(100));
  Bytes out(60);
  dis.read_some(out);
  EXPECT_EQ(dis.bytes_received(), 100u);
  EXPECT_EQ(dis.bytes_delivered(), 60u);
}

// ---------------------------------------------------------------------------
// Connection state errors

TEST(DetachableStream, DoubleConnectThrows) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);
  EXPECT_THROW(dos.reconnect(dis2), StreamError);
}

TEST(DetachableStream, ConnectToAttachedSinkThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);
  EXPECT_THROW(dos2.reconnect(dis), StreamError);
}

TEST(DetachableStream, PauseWithoutConnectionThrows) {
  DetachableOutputStream dos;
  EXPECT_THROW(dos.pause(), StreamError);
}

TEST(DetachableStream, DisPauseWithoutSourceThrows) {
  DetachableInputStream dis;
  EXPECT_THROW(dis.pause(), StreamError);
}

TEST(DetachableStream, PauseIsIdempotent) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.pause();
  EXPECT_NO_THROW(dos.pause());
}

TEST(DetachableStream, WriteAfterCloseThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.close();
  EXPECT_THROW(dos.write(to_bytes("x")), BrokenPipe);
}

TEST(DetachableStream, WriteToClosedReaderThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dis.close();
  EXPECT_THROW(dos.write(to_bytes("x")), BrokenPipe);
}

TEST(DetachableStream, ReconnectToClosedReaderThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  dis.close();
  EXPECT_THROW(dos.reconnect(dis), StreamError);
}

// ---------------------------------------------------------------------------
// EOF semantics

TEST(DetachableStream, CloseDeliversEofAfterDrain) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(to_bytes("tail"));
  dos.close();

  Bytes out(16);
  EXPECT_EQ(dis.read_some(out), 4u);  // buffered data first
  EXPECT_EQ(dis.read_some(out), 0u);  // then EOF
  EXPECT_EQ(dis.read_some(out), 0u);  // EOF is sticky
}

TEST(DetachableStream, CloseWakesBlockedReader) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  std::thread reader([&] {
    Bytes out(4);
    EXPECT_EQ(dis.read_some(out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dos.close();
  reader.join();
}

TEST(DetachableStream, SoftEofDrainsThenSignals) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(to_bytes("pending"));
  dis.mark_soft_eof();

  Bytes out(16);
  EXPECT_EQ(dis.read_some(out), 7u);
  EXPECT_EQ(dis.read_some(out), 0u);
}

TEST(DetachableStream, SoftEofClearedByReconnect) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);
  dos1.pause();
  dis.mark_soft_eof();
  Bytes out(4);
  EXPECT_EQ(dis.read_some(out), 0u);

  dos2.reconnect(dis);  // clears soft EOF: the filter is reusable
  dos2.write(to_bytes("more"));
  EXPECT_EQ(dis.read_some(out), 4u);
  EXPECT_EQ(to_string(out), "more");
}

// ---------------------------------------------------------------------------
// Pause / reconnect — the paper's contribution

TEST(DetachableStream, PauseDrainsBufferBeforeReturning) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(sequential_bytes(100));

  std::atomic<bool> paused{false};
  std::thread pauser([&] {
    dos.pause();
    paused = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(paused.load());  // buffer not yet drained

  Bytes out(100);
  std::size_t got = 0;
  while (got < 100) got += dis.read_some(util::MutableByteSpan(out).subspan(got));
  pauser.join();
  EXPECT_TRUE(paused.load());
  EXPECT_FALSE(dos.connected());
  EXPECT_FALSE(dis.connected());
  EXPECT_EQ(out, sequential_bytes(100));
}

TEST(DetachableStream, PauseOnEmptyBufferIsImmediate) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.pause();
  EXPECT_FALSE(dos.connected());
}

TEST(DetachableStream, DisPauseForwardsToSource) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dis.pause();  // reference call to dos.pause(), as in the paper
  EXPECT_FALSE(dos.connected());
  EXPECT_FALSE(dis.connected());
}

TEST(DetachableStream, ReaderBlockedAcrossPauseResumessAfterReconnect) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);

  Bytes out(5);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    EXPECT_EQ(dis.read_some(out), 5u);  // blocks across the splice
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dos1.pause();
  EXPECT_FALSE(done.load());

  dos2.reconnect(dis);
  dos2.write(to_bytes("after"));
  reader.join();
  EXPECT_EQ(to_string(out), "after");
}

TEST(DetachableStream, WriterBlockedAcrossPauseResumesAfterReconnect) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);
  dos.pause();

  std::atomic<bool> delivered{false};
  std::thread writer([&] {
    dos.write(to_bytes("redirected"));  // blocks: stream is paused
    delivered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(delivered.load());

  dos.reconnect(dis2);  // the write lands in the NEW sink
  Bytes out(10);
  std::size_t got = 0;
  while (got < 10) got += dis2.read_some(util::MutableByteSpan(out).subspan(got));
  writer.join();
  EXPECT_EQ(to_string(out), "redirected");
  EXPECT_EQ(dis1.available(), 0u);
}

TEST(DetachableStream, InFlightWriteLandsEntirelyInOneSink) {
  // A write that began before pause() must not be torn across two sinks:
  // this is what keeps framed packets intact across filter insertion.
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);

  const Bytes payload = sequential_bytes(200'000);
  std::thread writer([&] { dos.write(payload); });

  // Reader drains dis1 slowly while a pause is requested mid-write.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Bytes received;
  std::thread reader([&] {
    Bytes chunk(1024);
    while (received.size() < payload.size()) {
      const std::size_t n = dis1.read_some(chunk);
      if (n == 0) break;
      received.insert(received.end(), chunk.begin(),
                      chunk.begin() + static_cast<long>(n));
    }
  });

  dos.pause();  // returns only after the whole in-flight write drained
  writer.join();
  reader.join();
  EXPECT_EQ(received, payload);  // nothing left for dis2
  dos.reconnect(dis2);
  EXPECT_EQ(dis2.available(), 0u);
}

TEST(DetachableStream, SpliceRedirectsSubsequentTraffic) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);
  dos.write(to_bytes("one"));
  Bytes out(3);
  dis1.read_some(out);
  EXPECT_EQ(to_string(out), "one");

  dos.pause();
  dos.reconnect(dis2);
  dos.write(to_bytes("two"));
  dis2.read_some(out);
  EXPECT_EQ(to_string(out), "two");
  EXPECT_EQ(dis1.available(), 0u);
}

// ---------------------------------------------------------------------------
// Integrity property tests

struct SpliceParam {
  std::size_t ring_capacity;
  std::size_t total_bytes;
  int splices;
};

class SpliceIntegrityTest : public ::testing::TestWithParam<SpliceParam> {};

// One writer streams a known byte sequence through a DOS while the control
// thread repeatedly pauses it and bounces it between two DIS sinks; two
// readers concatenate what they see per-epoch. Total received must equal
// the sequence sent: nothing lost, duplicated, or reordered.
TEST_P(SpliceIntegrityTest, NoBytesLostDuplicatedOrReordered) {
  const auto param = GetParam();
  DetachableInputStream dis_a(param.ring_capacity), dis_b(param.ring_capacity);
  DetachableOutputStream dos;
  connect(dos, dis_a);

  const Bytes payload = [&] {
    Bytes b(param.total_bytes);
    util::Rng rng(1234);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    return b;
  }();

  std::thread writer([&] {
    util::Rng rng(99);
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const std::size_t n =
          std::min<std::size_t>(rng.next_below(1500) + 1, payload.size() - sent);
      dos.write(ByteSpan(payload.data() + sent, n));
      sent += n;
    }
    dos.close();
  });

  // One reader follows the stream across splices: it drains the currently
  // attached sink until the per-epoch soft EOF, then moves to the other
  // sink — exactly the hand-off a downstream filter experiences. The
  // resulting byte sequence must equal the payload.
  Bytes log;
  std::thread reader([&] {
    DetachableInputStream* current = &dis_a;
    Bytes chunk(777);
    while (log.size() < payload.size()) {
      const std::size_t n = current->read_some(chunk);
      if (n == 0) {
        current = (current == &dis_a) ? &dis_b : &dis_a;
        std::this_thread::yield();
        continue;
      }
      log.insert(log.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
    }
  });

  // Control thread: splice between sinks `splices` times. After each pause
  // the old sink is given a soft EOF so the reader knows to switch over.
  bool on_a = true;
  for (int i = 0; i < param.splices; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    try {
      dos.pause();
      (on_a ? dis_a : dis_b).mark_soft_eof();
      dos.reconnect(on_a ? dis_b : dis_a);
      on_a = !on_a;
    } catch (const StreamError&) {
      break;  // writer finished and closed the stream
    }
  }

  writer.join();
  reader.join();

  ASSERT_EQ(log.size(), payload.size());
  EXPECT_EQ(log, payload);
}

INSTANTIATE_TEST_SUITE_P(
    SpliceSweep, SpliceIntegrityTest,
    ::testing::Values(SpliceParam{64, 50'000, 20},
                      SpliceParam{256, 100'000, 50},
                      SpliceParam{4096, 500'000, 30},
                      SpliceParam{65536, 1'000'000, 10},
                      SpliceParam{17, 20'000, 40}),
    [](const auto& info) {
      return "ring" + std::to_string(info.param.ring_capacity) + "_bytes" +
             std::to_string(info.param.total_bytes) + "_splices" +
             std::to_string(info.param.splices);
    });

// Frames written through splices stay intact (the frame-boundary property).
TEST(DetachableStream, FramesSurviveSplices) {
  DetachableInputStream dis_a, dis_b;
  DetachableOutputStream dos;
  connect(dos, dis_a);

  constexpr int kFrames = 2000;
  std::thread writer([&] {
    util::Rng rng(5);
    for (int i = 0; i < kFrames; ++i) {
      Bytes payload(rng.next_below(900) + 4);
      util::Writer w;
      w.u32(static_cast<std::uint32_t>(i));
      std::copy(w.bytes().begin(), w.bytes().end(), payload.begin());
      util::write_frame(dos, payload);
    }
    dos.close();
  });

  std::vector<std::uint32_t> ids;
  std::thread reader([&] {
    DetachableInputStream* current = &dis_a;
    while (ids.size() < static_cast<std::size_t>(kFrames)) {
      auto frame = util::read_frame(*current);
      if (!frame) {
        current = (current == &dis_a) ? &dis_b : &dis_a;
        std::this_thread::yield();
        continue;
      }
      util::Reader r(*frame);
      ids.push_back(r.u32());
    }
  });

  bool on_a = true;
  for (int i = 0; i < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    try {
      dos.pause();
      (on_a ? dis_a : dis_b).mark_soft_eof();
      dos.reconnect(on_a ? dis_b : dis_a);
      on_a = !on_a;
    } catch (const StreamError&) {
      break;
    }
  }

  writer.join();
  reader.join();

  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(ids[i], static_cast<std::uint32_t>(i));
}

// Same integrity property, but read through the batched util::FrameReader:
// splices only ever land on frame boundaries (pause() drains the in-flight
// write), so a fresh FrameReader per epoch must see whole frames only.
TEST(DetachableStream, FramesSurviveSplicesBatchedReader) {
  DetachableInputStream dis_a, dis_b;
  DetachableOutputStream dos;
  connect(dos, dis_a);

  constexpr int kFrames = 2000;
  std::thread writer([&] {
    util::Rng rng(7);
    for (int i = 0; i < kFrames; ++i) {
      Bytes payload(rng.next_below(900) + 4);
      util::Writer w;
      w.u32(static_cast<std::uint32_t>(i));
      std::copy(w.bytes().begin(), w.bytes().end(), payload.begin());
      util::write_frame(dos, payload);
    }
    dos.close();
  });

  std::vector<std::uint32_t> ids;
  std::thread reader([&] {
    DetachableInputStream* current = &dis_a;
    while (ids.size() < static_cast<std::size_t>(kFrames)) {
      util::FrameReader frames(*current);
      while (ids.size() < static_cast<std::size_t>(kFrames)) {
        auto frame = frames.next();
        if (!frame) break;
        util::Reader r(*frame);
        ids.push_back(r.u32());
      }
      if (ids.size() < static_cast<std::size_t>(kFrames)) {
        current = (current == &dis_a) ? &dis_b : &dis_a;
        std::this_thread::yield();
      }
    }
  });

  bool on_a = true;
  for (int i = 0; i < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    try {
      dos.pause();
      (on_a ? dis_a : dis_b).mark_soft_eof();
      dos.reconnect(on_a ? dis_b : dis_a);
      on_a = !on_a;
    } catch (const StreamError&) {
      break;
    }
  }

  writer.join();
  reader.join();

  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(ids[i], static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Torn-frame EOF regression (the read_exact ambiguity fix): a soft EOF that
// lands inside a frame must surface as a deterministic SerialError, never as
// a silent short read or a clean-looking EOF.

TEST(DetachableStream, SoftEofBetweenHeaderAndPayloadThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  // A complete 6-byte header promising 100 payload bytes — then the filter
  // is detached before any payload arrives.
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u32(100);
  dos.write(w.bytes());
  dis.mark_soft_eof();
  EXPECT_THROW(util::read_frame(dis), util::SerialError);
}

TEST(DetachableStream, SoftEofMidHeaderThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u8(3);  // header cut short: 3 of 6 bytes
  dos.write(w.bytes());
  dis.mark_soft_eof();
  EXPECT_THROW(util::read_frame(dis), util::SerialError);
}

TEST(DetachableStream, SoftEofMidPayloadThrowsFromFrameReader) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  util::write_frame(dos, to_bytes("whole frame"));
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u32(100);
  dos.write(w.bytes());
  dos.write(to_bytes("only a fragment"));
  dis.mark_soft_eof();

  util::FrameReader frames(dis);
  auto first = frames.next();
  ASSERT_TRUE(first.has_value());  // the complete frame is still delivered
  EXPECT_EQ(to_string(*first), "whole frame");
  EXPECT_THROW(frames.next(), util::SerialError);
}

TEST(DetachableStream, CleanSoftEofAtFrameBoundaryIsNotAnError) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  util::write_frame(dos, to_bytes("whole"));
  dis.mark_soft_eof();
  auto frame = util::read_frame(dis);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(util::read_frame(dis).has_value());  // clean EOF, no throw
}

// ---------------------------------------------------------------------------
// Vectored writes

TEST(DetachableStream, WriteVecConcatenatesSegments) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  const Bytes a = to_bytes("one"), b = to_bytes("+two"), c = to_bytes("+3");
  const std::array<ByteSpan, 3> segs = {ByteSpan(a), ByteSpan(b), ByteSpan(c)};
  dos.write_vec(segs);
  EXPECT_EQ(dis.available(), 9u);
  Bytes out(9);
  EXPECT_EQ(dis.read_some(out), 9u);
  EXPECT_EQ(to_string(out), "one+two+3");
  EXPECT_EQ(dos.bytes_sent(), 9u);
}

TEST(DetachableStream, WriteVecEmptySegmentsAreNoOps) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  const Bytes a = to_bytes("data");
  const std::array<ByteSpan, 3> segs = {ByteSpan(), ByteSpan(a), ByteSpan()};
  dos.write_vec(segs);
  Bytes out(4);
  EXPECT_EQ(dis.read_some(out), 4u);
  EXPECT_EQ(to_string(out), "data");
}

TEST(DetachableStream, WriteVecLargerThanRingDelivers) {
  DetachableInputStream dis(64);  // tiny ring: the transaction must stream
  DetachableOutputStream dos;
  connect(dos, dis);
  const Bytes a = sequential_bytes(300, 0), b = sequential_bytes(300, 100);
  Bytes expect = a;
  expect.insert(expect.end(), b.begin(), b.end());

  std::thread writer([&] {
    const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};
    dos.write_vec(segs);
    dos.close();
  });
  Bytes received, chunk(64);
  for (;;) {
    const std::size_t n = dis.read_some(chunk);
    if (n == 0) break;
    received.insert(received.end(), chunk.begin(),
                    chunk.begin() + static_cast<long>(n));
  }
  writer.join();
  EXPECT_EQ(received, expect);
}

TEST(DetachableStream, WriteVecLandsEntirelyInOneSink) {
  // The vectored analogue of InFlightWriteLandsEntirelyInOneSink: a pause
  // racing a multi-segment transaction must never split the segments
  // across two sinks (this is exactly what keeps a frame's header and
  // payload together when write_frame meets a splice).
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);

  const Bytes header = sequential_bytes(50'000, 1);
  const Bytes payload = sequential_bytes(150'000, 7);
  Bytes expect = header;
  expect.insert(expect.end(), payload.begin(), payload.end());
  std::thread writer([&] {
    const std::array<ByteSpan, 2> segs = {ByteSpan(header), ByteSpan(payload)};
    dos.write_vec(segs);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Bytes received;
  std::thread reader([&] {
    Bytes chunk(1024);
    while (received.size() < expect.size()) {
      const std::size_t n = dis1.read_some(chunk);
      if (n == 0) break;
      received.insert(received.end(), chunk.begin(),
                      chunk.begin() + static_cast<long>(n));
    }
  });

  dos.pause();  // returns only after the whole transaction drained
  writer.join();
  reader.join();
  EXPECT_EQ(received, expect);  // nothing left over for dis2
  dos.reconnect(dis2);
  EXPECT_EQ(dis2.available(), 0u);
}

// ---------------------------------------------------------------------------
// Borrow reads

TEST(DetachableStream, ReadBorrowConsumesWhatVisitorTook) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(to_bytes("abcdef"));

  std::string seen;
  const std::size_t n =
      dis.read_borrow(0, [&](ByteSpan x, ByteSpan y) -> std::size_t {
        seen.append(reinterpret_cast<const char*>(x.data()), x.size());
        seen.append(reinterpret_cast<const char*>(y.data()), y.size());
        return 4;  // consume a prefix only
      });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seen, "abcdef");
  EXPECT_EQ(dis.available(), 2u);  // the tail stays buffered

  Bytes out(2);
  EXPECT_EQ(dis.read_some(out), 2u);
  EXPECT_EQ(to_string(out), "ef");
}

TEST(DetachableStream, ReadBorrowHonorsMaxLimit) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(sequential_bytes(100));
  const std::size_t n =
      dis.read_borrow(16, [&](ByteSpan x, ByteSpan y) -> std::size_t {
        EXPECT_LE(x.size() + y.size(), 16u);
        return x.size() + y.size();
      });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(dis.available(), 84u);
}

TEST(DetachableStream, ReadBorrowReturnsZeroAtEof) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.close();
  bool visited = false;
  const std::size_t n = dis.read_borrow(0, [&](ByteSpan, ByteSpan) {
    visited = true;
    return std::size_t{0};
  });
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(visited);  // EOF short-circuits: visitor never runs
}

TEST(DetachableStream, ReadBorrowVisitorNoProgressThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(to_bytes("data"));
  EXPECT_THROW(
      dis.read_borrow(0, [](ByteSpan, ByteSpan) { return std::size_t{0}; }),
      StreamError);
  EXPECT_EQ(dis.available(), 4u);  // the buffer is untouched
}

TEST(DetachableStream, ReadBorrowOverconsumingVisitorThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.write(to_bytes("data"));
  EXPECT_THROW(
      dis.read_borrow(0, [](ByteSpan x, ByteSpan y) {
        return x.size() + y.size() + 1;
      }),
      StreamError);
}

// ---------------------------------------------------------------------------
// Wakeup suppression

TEST(DetachableStream, NotifiesSuppressedWhenNobodyWaits) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  // Strictly alternating single-threaded use: no thread ever parks, so
  // every data-path notify is skippable.
  Bytes out(64);
  for (int i = 0; i < 10; ++i) {
    dos.write(to_bytes("ping"));
    EXPECT_EQ(dis.read_some(out), 4u);
  }
  EXPECT_EQ(dis.wakeups(), 0u);
  EXPECT_GE(dis.wakeups_suppressed(), 20u);  // 10 writes + 10 reads
}

TEST(DetachableStream, NotifyIssuedWhenReaderIsParked) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  std::thread reader([&] {
    Bytes out(16);
    EXPECT_EQ(dis.read_some(out), 5u);  // parks until the write arrives
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dos.write(to_bytes("wake!"));
  reader.join();
  EXPECT_GE(dis.wakeups(), 1u);
}

// ---------------------------------------------------------------------------
// Ring storage follows the traffic: nothing until the first write, then
// doubling from 4 KiB toward the 64 KiB bound under the writer's lock.

TEST(DetachableStream, RingStorageDoublesUnderABurstAndKeepsFrames) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  EXPECT_EQ(dis.ring_bytes(), 0u);

  // 64 frames of 333 B with nobody reading: 21 696 bytes, so the storage
  // passes every size from 4 KiB up to 32 KiB while frames stay whole.
  std::vector<std::size_t> storage;
  for (std::uint8_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(util::try_write_frame(dos, sequential_bytes(333, i)));
    if (storage.empty() || storage.back() != dis.ring_bytes()) {
      storage.push_back(dis.ring_bytes());
    }
  }
  EXPECT_EQ(storage, (std::vector<std::size_t>{4096, 8192, 16384, 32768}));
  EXPECT_EQ(dis.available(), 64u * (333 + util::kFrameHeaderSize));

  dos.close();
  util::FrameReader frames(dis);
  for (std::uint8_t i = 0; i < 64; ++i) {
    const auto frame = frames.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, sequential_bytes(333, i));
  }
  EXPECT_FALSE(frames.next().has_value());
  EXPECT_EQ(dis.ring_bytes(), 32768u);  // storage never shrinks
}

}  // namespace
}  // namespace rapidware::core
