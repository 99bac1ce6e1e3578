// Unit tests for src/util: buffers, RNG, stats, serialization, framing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/stats.h"

namespace rapidware::util {
namespace {

// ---------------------------------------------------------------------------
// ByteRing

TEST(ByteRing, StartsEmpty) {
  ByteRing ring(16);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.free_space(), 16u);
}

TEST(ByteRing, WriteThenReadRoundTrips) {
  ByteRing ring(16);
  const Bytes in = to_bytes("hello");
  EXPECT_EQ(ring.write(in), 5u);
  EXPECT_EQ(ring.size(), 5u);
  Bytes out(5);
  EXPECT_EQ(ring.read(out), 5u);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(ring.empty());
}

TEST(ByteRing, WriteIsBoundedByFreeSpace) {
  ByteRing ring(4);
  const Bytes in = to_bytes("abcdef");
  EXPECT_EQ(ring.write(in), 4u);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.write(in), 0u);
}

TEST(ByteRing, WrapAroundPreservesOrder) {
  ByteRing ring(8);
  Bytes tmp(5);
  ASSERT_EQ(ring.write(to_bytes("abcde")), 5u);
  ASSERT_EQ(ring.read(tmp), 5u);  // head now at 5
  ASSERT_EQ(ring.write(to_bytes("123456")), 6u);  // wraps
  Bytes out(6);
  ASSERT_EQ(ring.read(out), 6u);
  EXPECT_EQ(to_string(out), "123456");
}

TEST(ByteRing, PeekDoesNotConsume) {
  ByteRing ring(8);
  ring.write(to_bytes("xyz"));
  Bytes peeked(3);
  EXPECT_EQ(ring.peek(peeked), 3u);
  EXPECT_EQ(ring.size(), 3u);
  Bytes read(3);
  EXPECT_EQ(ring.read(read), 3u);
  EXPECT_EQ(read, peeked);
}

TEST(ByteRing, PartialReadReturnsAvailable) {
  ByteRing ring(8);
  ring.write(to_bytes("ab"));
  Bytes out(5);
  EXPECT_EQ(ring.read(out), 2u);
}

TEST(ByteRing, ClearEmptiesBuffer) {
  ByteRing ring(8);
  ring.write(to_bytes("abcd"));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.write(to_bytes("12345678")), 8u);
}

TEST(ByteRing, ManyWrapCyclesKeepFifoOrder) {
  ByteRing ring(7);  // odd capacity stresses wrap arithmetic
  Rng rng(42);
  Bytes sent, received;
  std::uint8_t next = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    Bytes chunk(rng.next_below(5) + 1);
    for (auto& b : chunk) b = next++;
    const std::size_t w = ring.write(chunk);
    sent.insert(sent.end(), chunk.begin(), chunk.begin() + static_cast<long>(w));
    // Resume the sequence from the first unsent byte (if any were refused).
    next = w < chunk.size() ? chunk[w]
                            : static_cast<std::uint8_t>(chunk.back() + 1);
    Bytes out(rng.next_below(5) + 1);
    const std::size_t r = ring.read(out);
    received.insert(received.end(), out.begin(),
                    out.begin() + static_cast<long>(r));
  }
  Bytes rest(ring.size());
  ring.read(rest);
  received.insert(received.end(), rest.begin(), rest.end());
  EXPECT_EQ(sent, received);
}

TEST(BytesHelpers, HexEncoding) {
  EXPECT_EQ(to_hex(Bytes{0xde, 0xad, 0x00, 0x0f}), "dead000f");
  EXPECT_EQ(to_hex(Bytes{}), "");
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) seen[rng.next_below(10)]++;
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected each
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(10);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// Stats

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(11);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_gaussian();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RateCounter, ComputesRate) {
  RateCounter c;
  EXPECT_EQ(c.rate(), 0.0);
  for (int i = 0; i < 98; ++i) c.add(true);
  for (int i = 0; i < 2; ++i) c.add(false);
  EXPECT_DOUBLE_EQ(c.rate(), 0.98);
  EXPECT_EQ(c.total(), 100u);
}

TEST(PercentFormat, Renders) {
  EXPECT_EQ(percent(0.9854), "98.54%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

// ---------------------------------------------------------------------------
// Clocks

TEST(Clocks, SimClockAdvancesManually) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(1500);
  EXPECT_EQ(clock.now(), 1500);
  clock.set(42);
  EXPECT_EQ(clock.now(), 42);
}

TEST(Clocks, WallClockIsMonotonic) {
  WallClock clock;
  const Micros a = clock.now();
  const Micros b = clock.now();
  EXPECT_GE(b, a);
}

TEST(Clocks, SecondsConversionRoundTrips) {
  EXPECT_EQ(seconds_to_micros(1.5), 1'500'000);
  EXPECT_EQ(seconds_to_micros(0.0), 0);
  EXPECT_DOUBLE_EQ(micros_to_seconds(250'000), 0.25);
  EXPECT_DOUBLE_EQ(micros_to_seconds(seconds_to_micros(12.75)), 12.75);
}

// ---------------------------------------------------------------------------
// Logging

TEST(Logging, LevelGatingWorks) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(saved);
}

TEST(Logging, EmissionDoesNotCrash) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kDebug);
  RW_DEBUG("test") << "value=" << 42;
  RW_INFO("test") << "info line";
  set_log_level(saved);
}

// ---------------------------------------------------------------------------
// Serialization

TEST(Serial, RoundTripsScalars) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Serial, RoundTripsBlobsAndStrings) {
  Writer w;
  w.blob(to_bytes("payload"));
  w.str("a string");
  w.str("");
  Reader r(w.bytes());
  EXPECT_EQ(to_string(r.blob()), "payload");
  EXPECT_EQ(r.str(), "a string");
  EXPECT_EQ(r.str(), "");
}

TEST(Serial, TruncatedInputThrows) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes());
  r.u16();
  EXPECT_THROW(r.u32(), SerialError);
}

TEST(Serial, OversizedBlobLengthThrows) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes, provides none
  Reader r(w.bytes());
  EXPECT_THROW(r.blob(), SerialError);
}

TEST(Serial, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

// ---------------------------------------------------------------------------
// Framing

/// ByteSource/ByteSink over an in-memory vector, for framing tests.
/// In-memory ByteSource + ByteSink. try_write_vec appends; poll_read_borrow
/// offers the unread bytes, at most `chunk` per poll when set. Once every
/// byte is read it reports end-of-stream, or would-block while `open`.
class MemoryStream final : public ByteSource, public ByteSink {
 public:
  bool try_write_vec(std::span<const ByteSpan> segments) override {
    for (const ByteSpan seg : segments) append(seg);
    return true;
  }
  std::size_t poll_read_borrow(std::size_t max, SpanVisitor visit,
                               bool* end) override {
    std::size_t n = data_.size() - pos_;
    if (max != 0) n = std::min(n, max);
    if (chunk != 0) n = std::min(n, chunk);
    *end = n == 0 && !open;
    if (n == 0) return 0;
    const std::size_t took = visit(ByteSpan(data_).subspan(pos_, n), {});
    pos_ += took;
    return took;
  }
  /// Raw bytes, framed or not (torn and corrupt frames).
  void append(ByteSpan in) { data_.insert(data_.end(), in.begin(), in.end()); }

  std::size_t chunk = 0;
  bool open = false;
  Bytes data_;
  std::size_t pos_ = 0;
};

/// One non-blocking read of `reader`; `*end` (when given) reports whether
/// a nullopt means end-of-stream rather than would-block.
std::optional<Bytes> poll_frame(FrameReader& reader, bool* end = nullptr) {
  bool ended = false;
  auto frame = reader.poll(&ended);
  if (end != nullptr) *end = ended;
  return frame;
}

// Framing: the wire format try_write_frame produces, read back by a
// FrameReader that is offered ONE byte per poll, so every header and
// payload is reassembled across refills.

TEST(Framing, RoundTripsSingleFrame) {
  MemoryStream s;
  s.chunk = 1;
  ASSERT_TRUE(try_write_frame(s, to_bytes("hello frame")));
  // magic (u16 LE) | length (u32 LE) | payload
  ASSERT_EQ(s.data_.size(), kFrameHeaderSize + 11);
  EXPECT_EQ(s.data_[0], kFrameMagic & 0xff);
  EXPECT_EQ(s.data_[1], kFrameMagic >> 8);
  EXPECT_EQ(s.data_[2], 11);
  EXPECT_EQ(s.data_[3] | s.data_[4] | s.data_[5], 0);
  FrameReader fr(s);
  auto frame = poll_frame(fr);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(to_string(*frame), "hello frame");
  bool end = false;
  EXPECT_FALSE(poll_frame(fr, &end).has_value());  // clean EOF
  EXPECT_TRUE(end);
}

TEST(Framing, RoundTripsManyFramesInOrder) {
  MemoryStream s;
  s.chunk = 1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(try_write_frame(s, to_bytes("frame " + std::to_string(i))));
  }
  FrameReader fr(s);
  for (int i = 0; i < 100; ++i) {
    auto frame = poll_frame(fr);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(to_string(*frame), "frame " + std::to_string(i));
  }
  EXPECT_FALSE(poll_frame(fr).has_value());
}

TEST(Framing, EmptyPayloadAllowed) {
  MemoryStream s;
  s.chunk = 1;
  ASSERT_TRUE(try_write_frame(s, {}));
  EXPECT_EQ(s.data_.size(), kFrameHeaderSize);
  FrameReader fr(s);
  auto frame = poll_frame(fr);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(Framing, BadMagicThrows) {
  MemoryStream s;
  s.chunk = 1;
  s.append(to_bytes("garbage data here"));
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(Framing, TruncatedHeaderThrows) {
  MemoryStream s;
  s.chunk = 1;
  Writer w;
  w.u16(kFrameMagic);
  w.u8(1);  // header cut short
  s.append(w.bytes());
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(Framing, TruncatedPayloadThrows) {
  MemoryStream s;
  s.chunk = 1;
  Writer w;
  w.u16(kFrameMagic);
  w.u32(100);
  w.str("short");  // far fewer than 100 bytes
  s.append(w.bytes());
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(Framing, OversizedFrameRejected) {
  MemoryStream s;
  s.chunk = 1;
  Writer w;
  w.u16(kFrameMagic);
  w.u32(kMaxFrameSize + 1);
  s.append(w.bytes());
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

// ---------------------------------------------------------------------------
// ByteRing segment APIs: vectored write + borrow spans

namespace {

/// Drives head_ to `offset` so subsequent writes straddle the wrap point.
void spin_ring_to(ByteRing& ring, std::size_t offset) {
  Bytes junk(offset, 0xee);
  ASSERT_EQ(ring.write(ByteSpan(junk)), offset);
  Bytes sink(offset);
  ASSERT_EQ(ring.read(sink), offset);
  ASSERT_TRUE(ring.empty());
}

Bytes drain_via_spans(ByteRing& ring) {
  const auto spans = ring.read_spans();
  Bytes out;
  out.insert(out.end(), spans[0].begin(), spans[0].end());
  out.insert(out.end(), spans[1].begin(), spans[1].end());
  ring.consume(out.size());
  return out;
}

}  // namespace

TEST(ByteRingSegments, VectoredWriteRoundTrips) {
  ByteRing ring(32);
  const Bytes a = to_bytes("head"), b = to_bytes("er+payload");
  const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};
  EXPECT_EQ(ring.write(std::span<const ByteSpan>(segs)), 14u);
  EXPECT_EQ(to_string(drain_via_spans(ring)), "header+payload");
}

TEST(ByteRingSegments, VectoredWriteStraddlesWrapPoint) {
  ByteRing ring(16);
  spin_ring_to(ring, 12);  // 4 bytes of tail room before the wrap
  const Bytes a = to_bytes("abcdef"), b = to_bytes("ghij");
  const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};
  EXPECT_EQ(ring.write(std::span<const ByteSpan>(segs)), 10u);
  // Content wraps: read_spans must expose exactly two non-empty pieces
  // whose concatenation is the segment concatenation.
  const auto spans = ring.read_spans();
  EXPECT_EQ(spans[0].size(), 4u);
  EXPECT_EQ(spans[1].size(), 6u);
  EXPECT_EQ(to_string(drain_via_spans(ring)), "abcdefghij");
  EXPECT_TRUE(ring.empty());
}

TEST(ByteRingSegments, SingleSegmentItselfStraddlesWrap) {
  ByteRing ring(8);
  spin_ring_to(ring, 6);
  const Bytes a = to_bytes("wrap!");
  const std::array<ByteSpan, 1> segs = {ByteSpan(a)};
  EXPECT_EQ(ring.write(std::span<const ByteSpan>(segs)), 5u);
  EXPECT_EQ(to_string(drain_via_spans(ring)), "wrap!");
}

TEST(ByteRingSegments, VectoredWriteStopsWhenFull) {
  ByteRing ring(8);
  const Bytes a = to_bytes("abcde"), b = to_bytes("fghij");
  const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};
  // 10 bytes offered, 8 fit: the cut lands mid-second-segment.
  EXPECT_EQ(ring.write(std::span<const ByteSpan>(segs)), 8u);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(to_string(drain_via_spans(ring)), "abcdefgh");
}

TEST(ByteRingSegments, EmptySegmentsAreNoOps) {
  ByteRing ring(8);
  const Bytes a = to_bytes("xy");
  const std::array<ByteSpan, 3> segs = {ByteSpan(), ByteSpan(a), ByteSpan()};
  EXPECT_EQ(ring.write(std::span<const ByteSpan>(segs)), 2u);
  EXPECT_EQ(to_string(drain_via_spans(ring)), "xy");
}

TEST(ByteRingSegments, ReadSpansOfEmptyRingAreEmpty) {
  ByteRing ring(8);
  const auto spans = ring.read_spans();
  EXPECT_TRUE(spans[0].empty());
  EXPECT_TRUE(spans[1].empty());
}

TEST(ByteRingSegments, PartialConsumeAdvancesSpans) {
  ByteRing ring(8);
  ASSERT_EQ(ring.write(ByteSpan(to_bytes("abcdef"))), 6u);
  ring.consume(2);
  EXPECT_EQ(to_string(drain_via_spans(ring)), "cdef");
}

TEST(ByteRingSegments, ManyWrapCyclesViaSegmentApis) {
  ByteRing ring(7);  // odd capacity stresses wrap arithmetic
  Bytes expect, got;
  std::uint8_t next = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    Bytes a(2), b(3);
    for (auto& v : a) v = next++;
    for (auto& v : b) v = next++;
    expect.insert(expect.end(), a.begin(), a.end());
    expect.insert(expect.end(), b.begin(), b.end());
    const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};
    ASSERT_EQ(ring.write(std::span<const ByteSpan>(segs)), 5u);
    const Bytes piece = drain_via_spans(ring);
    got.insert(got.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// ByteRing storage: nothing until the first write, then doubling from 4 KiB
// toward the bound. The bound alone drives capacity()/free_space()/full().

namespace {

constexpr std::size_t kMinRingStorage = 4096;

/// Checks the bound-vs-storage invariants of a ring bounded at `bound`.
void expect_bound_semantics(const ByteRing& ring, std::size_t bound) {
  EXPECT_EQ(ring.capacity(), bound);
  EXPECT_EQ(ring.free_space(), bound - ring.size());
  EXPECT_EQ(ring.full(), ring.size() == bound);
  EXPECT_LE(ring.storage(), bound);
  EXPECT_GE(ring.storage(), ring.size());
}

}  // namespace

TEST(ByteRingStorage, NeverWrittenRingHoldsNoStorageAndReadsSafely) {
  ByteRing ring(64 * 1024);
  EXPECT_EQ(ring.storage(), 0u);
  expect_bound_semantics(ring, 64 * 1024);
  Bytes out(16);
  EXPECT_EQ(ring.read(out), 0u);
  EXPECT_EQ(ring.peek(out), 0u);
  EXPECT_EQ(ring.read(MutableByteSpan()), 0u);
  ring.consume(0);
  const auto spans = ring.read_spans();
  EXPECT_TRUE(spans[0].empty());
  EXPECT_TRUE(spans[1].empty());
  EXPECT_EQ(ring.write(ByteSpan()), 0u);  // an empty write allocates nothing
  ring.clear();
  EXPECT_EQ(ring.storage(), 0u);
}

TEST(ByteRingStorage, DoublesFromFourKibAndNeverExceedsTheBound) {
  for (const std::size_t bound :
       {std::size_t{64 * 1024}, std::size_t{10'000}, std::size_t{100}}) {
    ByteRing ring(bound);
    std::vector<std::size_t> seen;
    const Bytes byte(1, 0x5a);
    while (!ring.full()) {
      ASSERT_EQ(ring.write(byte), 1u);
      if (seen.empty() || seen.back() != ring.storage()) {
        seen.push_back(ring.storage());
      }
      ASSERT_GE(ring.storage(), ring.size());
      ASSERT_LE(ring.storage(), bound);
    }
    std::vector<std::size_t> expect;
    for (std::size_t s = kMinRingStorage; s < bound; s *= 2) {
      expect.push_back(s);
    }
    expect.push_back(bound);
    EXPECT_EQ(seen, expect) << "bound " << bound;
    EXPECT_EQ(ring.write(byte), 0u);  // full at the bound, not the storage
    EXPECT_EQ(ring.storage(), bound);
  }
}

TEST(ByteRingStorage, GrowthWhileWrappedKeepsFifoAtEveryHeadOffset) {
  // Park the head at every offset of the first 4 KiB allocation, fill the
  // storage so the contents wrap, then write past it: the growth must move
  // both wrapped pieces to the front of the new storage in order.
  constexpr std::size_t kBound = 3 * kMinRingStorage + 17;
  for (std::size_t offset = 0; offset < kMinRingStorage; ++offset) {
    ByteRing ring(kBound);
    Bytes junk(offset + 1, 0xee);  // +1: allocate even at offset 0
    ASSERT_EQ(ring.write(ByteSpan(junk)), junk.size());
    ASSERT_EQ(ring.read(junk), junk.size());
    ring.clear();  // head back to 0, then advance it to `offset`
    Bytes lead(offset, 0xdd);
    ASSERT_EQ(ring.write(ByteSpan(lead)), offset);
    ASSERT_EQ(ring.read(lead), offset);
    ASSERT_EQ(ring.storage(), kMinRingStorage);

    Bytes sent(kMinRingStorage + 1 + offset % 97);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      sent[i] = static_cast<std::uint8_t>(i * 7 + offset);
    }
    const std::size_t first = kMinRingStorage;  // wraps unless offset is 0
    ASSERT_EQ(ring.write(ByteSpan(sent).first(first)), first);
    ASSERT_EQ(ring.storage(), kMinRingStorage);
    ASSERT_EQ(ring.write(ByteSpan(sent).subspan(first)), sent.size() - first);
    ASSERT_EQ(ring.storage(), 2 * kMinRingStorage) << "offset " << offset;
    Bytes got(sent.size());
    ASSERT_EQ(ring.read(got), got.size());
    ASSERT_EQ(got, sent) << "offset " << offset;
  }
}

TEST(ByteRingStorage, RandomizedGrowthKeepsFifoAndBoundSemantics) {
  constexpr std::size_t kBound = 5 * kMinRingStorage + 123;
  Rng rng(0x41e6);
  for (int trial = 0; trial < 40; ++trial) {
    ByteRing ring(kBound);
    std::uint8_t next = static_cast<std::uint8_t>(trial);
    std::uint8_t expect = next;
    std::size_t last_storage = 0;
    for (int step = 0; step < 400; ++step) {
      Bytes chunk(rng.next_below(3000) + 1);
      for (auto& b : chunk) b = next++;
      const std::size_t w = ring.write(chunk);
      ASSERT_EQ(w, std::min(chunk.size(), kBound - (ring.size() - w)));
      next = static_cast<std::uint8_t>(next - (chunk.size() - w));
      expect_bound_semantics(ring, kBound);
      ASSERT_GE(ring.storage(), last_storage);  // storage never shrinks
      last_storage = ring.storage();

      Bytes out(rng.next_below(3500) + 1);
      const std::size_t r = ring.read(out);
      for (std::size_t i = 0; i < r; ++i) {
        ASSERT_EQ(out[i], expect++) << "trial " << trial << " step " << step;
      }
      expect_bound_semantics(ring, kBound);
    }
  }
}

TEST(ByteRingStorage, GrowRaisesAnEmptyRingsBoundWithoutAllocating) {
  ByteRing ring(8192);
  ring.grow(100'000);
  EXPECT_EQ(ring.capacity(), 100'000u);
  EXPECT_EQ(ring.storage(), 0u);
  ring.grow(10);  // never lowers the bound
  EXPECT_EQ(ring.capacity(), 100'000u);

  Bytes big(70'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_EQ(ring.write(big), big.size());
  EXPECT_EQ(ring.storage(), 100'000u);  // bit_ceil(70 000), capped
  EXPECT_THROW(ring.grow(200'000), std::logic_error);
  Bytes got(big.size());
  ASSERT_EQ(ring.read(got), got.size());
  EXPECT_EQ(got, big);

  // Raising the bound of a drained ring keeps its storage until a write
  // needs more.
  ring.grow(300'000);
  EXPECT_EQ(ring.capacity(), 300'000u);
  EXPECT_EQ(ring.storage(), 100'000u);
}

// ---------------------------------------------------------------------------
// FrameReader — batched frame decoding

TEST(FrameReader, RoundTripsManyFramesInOrder) {
  MemoryStream s;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(try_write_frame(s, to_bytes("frame " + std::to_string(i))));
  }
  FrameReader fr(s);
  for (int i = 0; i < 100; ++i) {
    auto frame = poll_frame(fr);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(to_string(*frame), "frame " + std::to_string(i));
  }
  bool end = false;
  EXPECT_FALSE(poll_frame(fr, &end).has_value());  // clean EOF
  EXPECT_TRUE(end);
  end = false;
  EXPECT_FALSE(poll_frame(fr, &end).has_value());  // EOF is sticky
  EXPECT_TRUE(end);
  EXPECT_EQ(fr.frames(), 100u);
}

TEST(FrameReader, BatchesManyFramesPerRefill) {
  MemoryStream s;
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(try_write_frame(s, Bytes(10, 0x42)));
  FrameReader fr(s);
  while (poll_frame(fr)) {
  }
  // 64 x 16-byte frames fit in far fewer refills than frames: the whole
  // point of the batched reader (one lock trip decodes many frames).
  EXPECT_EQ(fr.frames(), 64u);
  EXPECT_LT(fr.refills(), 16u);
}

// While the stream is open, a partial frame is stashed and the poll
// reports would-block; the bytes that complete it complete the frame.
TEST(FrameReader, PartialFrameWaitsForTheRestWhileTheStreamIsOpen) {
  MemoryStream s;
  s.open = true;
  MemoryStream whole;
  ASSERT_TRUE(try_write_frame(whole, to_bytes("split across polls")));
  const ByteSpan wire(whole.data_);
  FrameReader fr(s);
  bool end = true;
  s.append(wire.first(4));  // part of the header
  EXPECT_FALSE(poll_frame(fr, &end).has_value());
  EXPECT_FALSE(end);
  s.append(wire.subspan(4, 8));  // the rest of it and part of the payload
  EXPECT_FALSE(poll_frame(fr, &end).has_value());
  EXPECT_FALSE(end);
  s.append(wire.subspan(12));
  auto frame = poll_frame(fr, &end);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(to_string(*frame), "split across polls");
  s.open = false;
  EXPECT_FALSE(poll_frame(fr, &end).has_value());
  EXPECT_TRUE(end);
}

TEST(FrameReader, EmptyPayloadAllowed) {
  MemoryStream s;
  ASSERT_TRUE(try_write_frame(s, {}));
  FrameReader fr(s);
  auto frame = poll_frame(fr);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
  EXPECT_FALSE(poll_frame(fr).has_value());
}

TEST(FrameReader, BadMagicThrows) {
  MemoryStream s;
  s.append(to_bytes("garbage data here"));
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(FrameReader, TornHeaderThrows) {
  MemoryStream s;
  Writer w;
  w.u16(kFrameMagic);
  w.u8(1);  // header cut short at EOF
  s.append(w.bytes());
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(FrameReader, TornPayloadThrows) {
  MemoryStream s;
  ASSERT_TRUE(try_write_frame(s, to_bytes("complete")));
  Writer w;
  w.u16(kFrameMagic);
  w.u32(100);
  w.str("short");  // far fewer than 100 bytes, then EOF
  s.append(w.bytes());
  FrameReader fr(s);
  auto frame = poll_frame(fr);
  ASSERT_TRUE(frame.has_value());  // the complete frame still arrives
  EXPECT_EQ(to_string(*frame), "complete");
  EXPECT_THROW(poll_frame(fr), SerialError);
}

TEST(FrameReader, OversizedFrameRejected) {
  MemoryStream s;
  Writer w;
  w.u16(kFrameMagic);
  w.u32(kMaxFrameSize + 1);
  s.append(w.bytes());
  FrameReader fr(s);
  EXPECT_THROW(poll_frame(fr), SerialError);
}

// ---------------------------------------------------------------------------
// BufferPool

TEST(BufferPool, MissThenHit) {
  BufferPool pool;
  Bytes b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.free_buffers(), 1u);
  Bytes c = pool.acquire(90);  // same 128-byte class: served from the pool
  EXPECT_EQ(c.size(), 90u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, ReleasedCapacityServesItsWholeClass) {
  BufferPool pool;
  Bytes b = pool.acquire(4096);
  pool.release(std::move(b));
  // Anything in (2048, 4096] maps to the same acquire bucket.
  Bytes c = pool.acquire(2049);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(std::move(c));
  // 2048 itself belongs to the smaller class; its bucket is empty.
  Bytes d = pool.acquire(2048);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPool, OversizedBuffersAreDropped) {
  BufferPool pool(BufferPool::Config{.max_buffers_per_bucket = 4,
                                     .max_capacity = 1024});
  Bytes big = pool.acquire(2048);  // beyond max_capacity: never pooled
  pool.release(std::move(big));
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, FullBucketDropsExcess) {
  BufferPool pool(BufferPool::Config{.max_buffers_per_bucket = 1,
                                     .max_capacity = 1024});
  pool.release(Bytes(256));
  pool.release(Bytes(256));  // bucket already holds its one buffer
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.free_buffers(), 1u);
}

TEST(BufferPool, TinyBuffersAreNotPooled) {
  BufferPool pool;
  pool.release(Bytes(8));  // below the smallest size class
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, HitRateTracksSteadyState) {
  BufferPool pool;
  EXPECT_EQ(pool.hit_rate(), 0.0);
  for (int i = 0; i < 10; ++i) {
    Bytes b = pool.acquire(512);  // first acquire misses, the rest hit
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.stats().hits, 9u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_NEAR(pool.hit_rate(), 0.9, 1e-9);
}

TEST(BufferPool, AcquireZeroIsValid) {
  BufferPool pool;
  Bytes b = pool.acquire(0);
  EXPECT_TRUE(b.empty());
}

// ---------------------------------------------------------------------------
// Per-worker arenas (parented pools, local() routing, rebalance)

TEST(BufferPool, LocalResolvesInstalledArenaPerThread) {
  BufferPool arena;
  EXPECT_EQ(&BufferPool::local(), &default_pool());
  std::thread t([&] {
    BufferPool* prev = BufferPool::install_local(&arena);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(&BufferPool::local(), &arena);
    BufferPool::install_local(prev);
    EXPECT_EQ(&BufferPool::local(), &default_pool());
  });
  t.join();
  // The installation was thread-local: this thread never saw the arena.
  EXPECT_EQ(&BufferPool::local(), &default_pool());
}

TEST(BufferPool, ParentedArenaRefillsFromParentInOneBatch) {
  BufferPool parent;
  BufferPool child(BufferPool::Config{}, &parent);
  for (int i = 0; i < 4; ++i) parent.release(Bytes(512));
  ASSERT_EQ(parent.free_buffers(), 4u);

  // Child bucket dry: one batch refill migrates the parent's whole stash
  // (it was smaller than the batch), serves the acquire as a hit, and
  // banks the rest locally.
  Bytes b = child.acquire(512);
  EXPECT_EQ(child.stats().hits, 1u);
  EXPECT_EQ(child.stats().misses, 0u);
  EXPECT_EQ(child.stats().rebalanced, 1u);
  EXPECT_EQ(parent.free_buffers(), 0u);
  EXPECT_EQ(child.free_buffers(), 3u);
  child.release(std::move(b));

  // Steady state after the refill: pure local hits, zero parent-lock
  // acquisitions — the shared-nothing property the scaling bench gates on.
  const std::uint64_t parent_locks = parent.lock_acquires();
  for (int i = 0; i < 100; ++i) {
    Bytes c = child.acquire(512);
    child.release(std::move(c));
  }
  EXPECT_EQ(parent.lock_acquires(), parent_locks);
  EXPECT_EQ(child.stats().hits, 101u);
}

TEST(BufferPool, ParentedArenaDonatesOverflowInsteadOfDropping) {
  BufferPool parent;
  BufferPool child(BufferPool::Config{.max_buffers_per_bucket = 2,
                                      .max_capacity = 1024},
                   &parent);
  child.release(Bytes(256));
  child.release(Bytes(256));
  ASSERT_EQ(child.free_buffers(), 2u);

  // Third release overflows the local bucket: the batch (stash + victim)
  // is donated to the parent, not dropped — capacity released on one
  // worker stays available to the others.
  child.release(Bytes(256));
  EXPECT_EQ(child.stats().dropped, 0u);
  EXPECT_EQ(child.stats().rebalanced, 1u);
  EXPECT_EQ(child.stats().recycled, 3u);
  EXPECT_EQ(parent.free_buffers() + child.free_buffers(), 3u);
  EXPECT_GE(parent.free_buffers(), 1u);
}

TEST(BufferPool, CrossThreadFreeIsCounted) {
  BufferPool pool;
  // Claim ownership from a worker thread, then free from this (foreign)
  // thread: the release still lands, but the boundary crossing is counted.
  std::thread t([&] { BufferPool::install_local(&pool); });
  t.join();
  pool.release(Bytes(256));
  EXPECT_EQ(pool.stats().cross_free, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);

  // Same-thread frees through the owner are not cross-frees.
  std::thread owner([&] {
    BufferPool::install_local(&pool);
    pool.release(Bytes(256));
    BufferPool::install_local(nullptr);
  });
  owner.join();
  EXPECT_EQ(pool.stats().cross_free, 1u);
}

}  // namespace
}  // namespace rapidware::util
