// Tests for the paper's core mechanism: detachable streams.
//
// Covers the pipe contract through the calls a drive makes
// (try_write_some / try_write_vec / poll_read_borrow and the one-shot
// readiness watchers), pause/reconnect semantics, hard and soft EOF,
// error paths, and — most importantly — the integrity property: across
// arbitrary pause/reconnect (splice) cycles under concurrent load, the byte
// sequence observed downstream equals the byte sequence written upstream.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
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

/// One poll: appends up to `max` buffered bytes (0: all) to `out` and
/// returns how many. 0 with *end set is end-of-stream; 0 without it is
/// would-block.
std::size_t poll_append(DetachableInputStream& dis, Bytes& out,
                        std::size_t max = 0, bool* end = nullptr) {
  bool ended = false;
  const std::size_t n = dis.poll_read_borrow(
      max,
      [&](ByteSpan a, ByteSpan b) -> std::size_t {
        out.insert(out.end(), a.begin(), a.end());
        out.insert(out.end(), b.begin(), b.end());
        return a.size() + b.size();
      },
      &ended);
  if (end != nullptr) *end = ended;
  return n;
}

/// Everything buffered right now, in one poll.
std::string drain(DetachableInputStream& dis) {
  Bytes out;
  poll_append(dis, out);
  return to_string(out);
}

/// Writes all of `data` the way a drive would if it never gave up its
/// thread: poll, and yield on would-block. Chunks may split across a
/// splice; the byte order holds.
void write_polling(DetachableOutputStream& dos, ByteSpan data) {
  while (!data.empty()) {
    const std::size_t n = dos.try_write_some(data);
    if (n == 0) std::this_thread::yield();
    data = data.subspan(n);
  }
}

/// Counts the fires of the one-shot watchers it is installed as.
struct CountingScheduler final : Scheduler {
  void on_readable() override { ++readable; }
  void on_writable() override { ++writable; }
  std::atomic<int> readable{0};
  std::atomic<int> writable{0};
};

/// Stands in for a worker loop on a thread of its own: a would-block poll
/// leaves the watcher armed and the thread waits() for its fire, then polls
/// again. A fire that lands between the poll and the wait is kept, which
/// is the no-lost-wake-up property of arming under the stream lock.
class Waker final : public Scheduler {
 public:
  void on_readable() override { post(); }
  void on_writable() override { post(); }

  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return fired_; });
    fired_ = false;
  }

  int fires() const { return fires_.load(); }

 private:
  void post() {
    std::lock_guard<std::mutex> lk(mu_);
    fired_ = true;
    ++fires_;
    cv_.notify_one();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool fired_ = false;
  std::atomic<int> fires_{0};
};

// ---------------------------------------------------------------------------
// Basic pipe behaviour

TEST(DetachableStream, ConnectThenWriteThenRead) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  EXPECT_TRUE(dos.connected());
  EXPECT_TRUE(dis.connected());

  EXPECT_EQ(dos.try_write_some(to_bytes("hello")), 5u);
  EXPECT_EQ(dis.available(), 5u);

  Bytes out;
  bool end = true;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 5u);
  EXPECT_FALSE(end);
  EXPECT_EQ(to_string(out), "hello");
}

// A reader that finds the stream empty returns would-block with its
// watcher armed; the write that brings data fires it.
TEST(DetachableStream, ReadBlocksUntilDataArrives) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  Waker waker;
  dis.set_read_scheduler(&waker);
  connect(dos, dis);

  std::atomic<bool> got{false};
  std::thread reader([&] {
    Bytes out;
    bool end = false;
    while (poll_append(dis, out, 0, &end) == 0 && !end) waker.wait();
    EXPECT_EQ(to_string(out), "abc");
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  EXPECT_EQ(dos.try_write_some(to_bytes("abc")), 3u);
  reader.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(waker.fires(), 1);
}

// A writer facing a full ring is refused with its watcher armed at the
// sink; the read that frees space fires it.
TEST(DetachableStream, WriteBlocksWhenBufferFull) {
  DetachableInputStream dis(8);
  DetachableOutputStream dos;
  Waker waker;
  dos.set_write_scheduler(&waker);
  connect(dos, dis);

  EXPECT_EQ(dos.try_write_some(sequential_bytes(8)), 8u);  // fills the ring
  std::atomic<bool> done{false};
  std::thread writer([&] {
    const Bytes more = sequential_bytes(4, 8);
    while (dos.try_write_some(more) == 0) waker.wait();  // must wait for space
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());

  Bytes out;
  poll_append(dis, out);  // frees the ring: fires the writer
  writer.join();
  EXPECT_TRUE(done.load());
  poll_append(dis, out);
  EXPECT_EQ(out, sequential_bytes(12));
}

// A write far larger than the ring lands across many fillings: write until
// the ring refuses, drain, repeat — the rhythm of two stages on one worker.
TEST(DetachableStream, LargeWriteSpansManyRingFillings) {
  DetachableInputStream dis(64);
  DetachableOutputStream dos;
  connect(dos, dis);

  const Bytes payload = sequential_bytes(10'000);
  Bytes received;
  std::size_t sent = 0;
  int fillings = 0;
  while (received.size() < payload.size()) {
    while (sent < payload.size()) {
      const std::size_t n =
          dos.try_write_some(ByteSpan(payload).subspan(sent));
      sent += n;
      if (n == 0) break;
    }
    ++fillings;
    while (poll_append(dis, received, 37) != 0) {
    }
  }
  EXPECT_EQ(received, payload);
  EXPECT_GE(fillings, 10'000 / 64);
}

TEST(DetachableStream, AvailableReflectsBufferedBytes) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  EXPECT_EQ(dis.available(), 0u);
  dos.try_write_some(sequential_bytes(10));
  EXPECT_EQ(dis.available(), 10u);
  Bytes out;
  EXPECT_EQ(poll_append(dis, out, 4), 4u);
  EXPECT_EQ(dis.available(), 6u);
}

TEST(DetachableStream, ByteCountersTrackTraffic) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(sequential_bytes(100));
  Bytes out;
  poll_append(dis, out, 60);
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
  EXPECT_THROW(dos.try_write_some(to_bytes("x")), BrokenPipe);
  EXPECT_THROW(util::try_write_frame(dos, to_bytes("x")), BrokenPipe);
}

TEST(DetachableStream, WriteToClosedReaderThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dis.close();
  EXPECT_THROW(dos.try_write_some(to_bytes("x")), BrokenPipe);
  EXPECT_THROW(util::try_write_frame(dos, to_bytes("x")), BrokenPipe);
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
  dos.try_write_some(to_bytes("tail"));
  dos.close();

  Bytes out;
  bool end = true;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 4u);  // buffered data first
  EXPECT_FALSE(end);
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);  // then EOF
  EXPECT_TRUE(end);
  end = false;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);  // EOF is sticky
  EXPECT_TRUE(end);
  EXPECT_EQ(to_string(out), "tail");
}

TEST(DetachableStream, CloseWakesBlockedReader) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  Waker waker;
  dis.set_read_scheduler(&waker);
  connect(dos, dis);
  std::thread reader([&] {
    Bytes out;
    bool end = false;
    while (poll_append(dis, out, 0, &end) == 0 && !end) waker.wait();
    EXPECT_TRUE(end);
    EXPECT_TRUE(out.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dos.close();
  reader.join();
}

TEST(DetachableStream, SoftEofDrainsThenSignals) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(to_bytes("pending"));
  dis.mark_soft_eof();

  Bytes out;
  bool end = true;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 7u);
  EXPECT_FALSE(end);
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_TRUE(end);
}

// A detach EOF ends one epoch: it is reported once, and that report clears
// it, so the sink takes a new source and the filter is reusable.
TEST(DetachableStream, SoftEofIsReportedOnce) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);
  dos1.pause();
  dis.mark_soft_eof();
  Bytes out;
  bool end = false;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_TRUE(end);
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_FALSE(end);  // reported once: would-block from here on

  dos2.reconnect(dis);  // the EOF was read: the sink takes a new source
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_FALSE(end);  // open again: would-block, not EOF
  dos2.try_write_some(to_bytes("more"));
  EXPECT_EQ(drain(dis), "more");
}

// A sink whose reader has not yet read its detach EOF refuses a new source:
// the old and the new epoch would merge into one. Once the reader has read
// the old epoch and its end, the sink takes the new source.
TEST(DetachableStream, ReconnectRefusesASinkThatOwesItsReaderADetachEof) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);
  dos1.try_write_some(to_bytes("old"));
  dos1.pause();
  dis.mark_soft_eof();
  EXPECT_THROW(dos2.reconnect(dis), DetachEofPending);
  EXPECT_FALSE(dos2.connected());
  EXPECT_FALSE(dis.connected());

  Bytes out;
  bool end = true;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 3u);  // the old epoch's bytes
  EXPECT_FALSE(end);
  EXPECT_THROW(dos2.reconnect(dis), DetachEofPending);  // its end is unread
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_TRUE(end);

  dos2.reconnect(dis);
  EXPECT_TRUE(dis.connected());
  EXPECT_EQ(dos2.try_write_some(to_bytes("new")), 3u);
  EXPECT_EQ(poll_append(dis, out, 0, &end), 3u);
  EXPECT_FALSE(end);
  EXPECT_EQ(to_string(out), "oldnew");
}

// ---------------------------------------------------------------------------
// Pause / reconnect — the paper's contribution

// pause() waits for nothing, not even a reader: it returns with the bytes
// still buffered, and the reader drains them in order, ahead of whatever
// the sink's next source writes.
TEST(DetachableStream, PauseLeavesBufferedBytesForTheReader) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  connect(dos1, dis);
  dos1.try_write_some(sequential_bytes(100));

  dos1.pause();  // nobody reads yet
  EXPECT_FALSE(dos1.connected());
  EXPECT_FALSE(dis.connected());
  EXPECT_EQ(dis.available(), 100u);

  dos2.reconnect(dis);
  dos2.try_write_some(sequential_bytes(50, 100));
  Bytes out;
  while (poll_append(dis, out, 30) != 0) {
  }
  EXPECT_EQ(out, sequential_bytes(150));
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

// Across a splice the reader sees a quiet stream, never an EOF, and the
// new source's data reaches it.
TEST(DetachableStream, ReaderBlockedAcrossPauseResumessAfterReconnect) {
  DetachableInputStream dis;
  DetachableOutputStream dos1, dos2;
  Waker waker;
  dis.set_read_scheduler(&waker);
  connect(dos1, dis);

  Bytes out;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    bool end = false;
    while (poll_append(dis, out, 0, &end) == 0) {
      EXPECT_FALSE(end) << "a splice must not look like end-of-stream";
      if (end) break;
      waker.wait();  // waits across the splice
    }
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dos1.pause();
  EXPECT_FALSE(done.load());

  dos2.reconnect(dis);
  EXPECT_EQ(dos2.try_write_some(to_bytes("after")), 5u);
  reader.join();
  EXPECT_EQ(to_string(out), "after");
}

// A write refused while the stream is paused arms at the DOS; reconnect()
// fires it and the retry lands in the NEW sink.
TEST(DetachableStream, WriterBlockedAcrossPauseResumesAfterReconnect) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  Waker waker;
  dos.set_write_scheduler(&waker);
  connect(dos, dis1);
  dos.pause();

  std::atomic<bool> delivered{false};
  std::thread writer([&] {
    while (!util::try_write_frame(dos, to_bytes("redirected"))) waker.wait();
    delivered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(delivered.load());

  dos.reconnect(dis2);  // the write lands in the NEW sink
  writer.join();
  dos.close();
  util::FrameReader frames(dis2);
  bool end = false;
  const auto frame = frames.poll(&end);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(to_string(*frame), "redirected");
  EXPECT_EQ(dis1.available(), 0u);
}

// A write races a splice: because try_write_vec holds the DOS lock for its
// whole transaction, it lands entirely before the pause (in the old sink)
// or entirely after the reconnect (in the new one) — never torn across the
// two. This is what keeps framed packets intact across filter insertion.
// `segments` splits the payload into that many pieces of one transaction.
void race_one_write_against_a_splice(std::size_t segments) {
  const Bytes payload = sequential_bytes(200'000);
  std::vector<ByteSpan> segs;
  const std::size_t piece = payload.size() / segments;
  for (std::size_t i = 0; i < segments; ++i) {
    const std::size_t len =
        i + 1 == segments ? payload.size() - i * piece : piece;
    segs.emplace_back(payload.data() + i * piece, len);
  }
  for (int round = 0; round < 20; ++round) {
    DetachableInputStream dis1, dis2;
    DetachableOutputStream dos;
    connect(dos, dis1);
    std::thread writer([&] {
      while (!dos.try_write_vec(segs)) std::this_thread::yield();
    });
    Bytes got1;
    std::thread reader([&] {  // drains the old sink until its detach EOF
      bool end = false;
      while (!end) {
        if (poll_append(dis1, got1, 1024, &end) == 0) {
          std::this_thread::yield();
        }
      }
    });
    dos.pause();
    dis1.mark_soft_eof();
    reader.join();
    dos.reconnect(dis2);
    writer.join();
    Bytes got2;
    poll_append(dis2, got2);
    if (got1.empty()) {
      EXPECT_EQ(got2, payload) << "round " << round;
    } else {
      EXPECT_EQ(got1, payload) << "round " << round;
      EXPECT_TRUE(got2.empty()) << "round " << round;
    }
  }
}

TEST(DetachableStream, InFlightWriteLandsEntirelyInOneSink) {
  race_one_write_against_a_splice(1);
}

TEST(DetachableStream, SpliceRedirectsSubsequentTraffic) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  connect(dos, dis1);
  dos.try_write_some(to_bytes("one"));
  EXPECT_EQ(drain(dis1), "one");

  dos.pause();
  dos.reconnect(dis2);
  dos.try_write_some(to_bytes("two"));
  EXPECT_EQ(drain(dis2), "two");
  EXPECT_EQ(dis1.available(), 0u);
}

// ---------------------------------------------------------------------------
// Integrity property tests

struct SpliceParam {
  std::size_t ring_capacity;
  std::size_t total_bytes;
  int splices;
};

/// Keeps a writer and a splicing control thread in step, so that every
/// planned splice runs while the stream still flows: splice `i` waits until
/// the writer has sent unit i * units / splices of its stream (a unit is a
/// byte or a frame), and the writer sends unit `u` only once
/// u * splices / units splices have run, and closes only after the last.
struct SplicePacing {
  SplicePacing(std::size_t units, int splices)
      : units(units), splices(static_cast<std::size_t>(splices)) {}

  void writer_wait(std::size_t unit) const {
    while (executed.load() < unit * splices / units) std::this_thread::yield();
  }
  void splice_wait(std::size_t splice) const {
    while (sent.load() < splice * units / splices) std::this_thread::yield();
  }

  const std::size_t units;
  const std::size_t splices;
  std::atomic<std::size_t> sent{0};      // units the writer has sent
  std::atomic<std::size_t> executed{0};  // splices that have run
};

/// Moves the writer from `from` to `to`: pause, give the old sink its detach
/// EOF, then reconnect. While the new sink's reader has not yet read the
/// detach EOF of that sink's previous epoch, reconnect() refuses it, and the
/// splice retries.
void splice(DetachableOutputStream& dos, DetachableInputStream& from,
            DetachableInputStream& to) {
  dos.pause();
  from.mark_soft_eof();
  while (true) {
    try {
      dos.reconnect(to);
      return;
    } catch (const DetachEofPending&) {
      std::this_thread::yield();
    }
  }
}

/// Splices the writer between the two sinks `pacing.splices` times, each
/// once the writer has reached it.
void splice_back_and_forth(DetachableOutputStream& dos,
                           DetachableInputStream& dis_a,
                           DetachableInputStream& dis_b,
                           SplicePacing& pacing) {
  bool on_a = true;
  for (std::size_t i = 0; i < pacing.splices; ++i) {
    pacing.splice_wait(i);
    splice(dos, on_a ? dis_a : dis_b, on_a ? dis_b : dis_a);
    on_a = !on_a;
    ++pacing.executed;
  }
}

class SpliceIntegrityTest : public ::testing::TestWithParam<SpliceParam> {};

// One writer streams a known byte sequence through a DOS while the control
// thread repeatedly pauses it and bounces it between two DIS sinks; one
// reader follows the stream across the sinks. Total received must equal
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

  SplicePacing pacing(payload.size(), param.splices);
  std::thread writer([&] {
    util::Rng rng(99);
    std::size_t sent = 0;
    while (sent < payload.size()) {
      pacing.writer_wait(sent);
      const std::size_t n =
          std::min<std::size_t>(rng.next_below(1500) + 1, payload.size() - sent);
      write_polling(dos, ByteSpan(payload.data() + sent, n));
      sent += n;
      pacing.sent = sent;
    }
    pacing.writer_wait(payload.size());
    dos.close();
  });

  // The reader drains the currently attached sink until the per-epoch soft
  // EOF, then moves to the other sink — exactly the hand-off a downstream
  // filter experiences. The resulting byte sequence must equal the payload.
  Bytes log;
  std::thread reader([&] {
    util::Rng rng(7);
    DetachableInputStream* current = &dis_a;
    while (log.size() < payload.size()) {
      bool end = false;
      const std::size_t n =
          poll_append(*current, log, rng.next_below(777) + 1, &end);
      if (end) current = (current == &dis_a) ? &dis_b : &dis_a;
      if (n == 0) std::this_thread::yield();
    }
  });

  // Control thread: splice between sinks, each splice after the writer
  // reached it. After each pause the old sink is given a soft EOF so the
  // reader knows to switch over.
  splice_back_and_forth(dos, dis_a, dis_b, pacing);

  writer.join();
  reader.join();

  EXPECT_EQ(pacing.executed.load(), static_cast<std::size_t>(param.splices));
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

/// Frame `i` of the splice tests: its id, then 0..899 filler bytes.
Bytes numbered_frame(util::Rng& rng, int i) {
  Bytes payload(rng.next_below(900) + 4);
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(i));
  std::copy(w.bytes().begin(), w.bytes().end(), payload.begin());
  return payload;
}

// Frames written through splices stay intact (the frame-boundary property):
// every try_write_frame lands whole, so at every moment of every epoch a
// sink's buffer starts on a frame boundary and holds only whole frames.
// The reader takes exactly one frame per poll and checks it is complete.
TEST(DetachableStream, FramesSurviveSplices) {
  DetachableInputStream dis_a, dis_b;
  DetachableOutputStream dos;
  connect(dos, dis_a);

  constexpr int kFrames = 2000;
  constexpr int kSplices = 30;
  SplicePacing pacing(kFrames, kSplices);
  std::thread writer([&] {
    util::Rng rng(5);
    for (int i = 0; i < kFrames; ++i) {
      pacing.writer_wait(static_cast<std::size_t>(i));
      const Bytes payload = numbered_frame(rng, i);
      while (!util::try_write_frame(dos, payload)) std::this_thread::yield();
      pacing.sent = static_cast<std::size_t>(i) + 1;
    }
    pacing.writer_wait(kFrames);
    dos.close();
  });

  std::vector<std::uint32_t> ids;
  std::thread reader([&] {
    DetachableInputStream* current = &dis_a;
    while (ids.size() < static_cast<std::size_t>(kFrames)) {
      bool end = false;
      const std::size_t n = current->poll_read_borrow(
          0,
          [&](ByteSpan a, ByteSpan b) -> std::size_t {
            // Header and frame id: the first ten bytes of the buffer.
            constexpr std::size_t kHead = util::kFrameHeaderSize + 4;
            const std::size_t buffered = a.size() + b.size();
            Bytes head;
            for (const ByteSpan s : {a, b}) {
              const std::size_t take = std::min(s.size(), kHead - head.size());
              head.insert(head.end(), s.begin(), s.begin() + take);
            }
            util::Reader r(head);
            if (head.size() < kHead || r.u16() != util::kFrameMagic) {
              ADD_FAILURE() << "the buffer does not start with a frame";
              return buffered;
            }
            const std::uint32_t len = r.u32();
            if (buffered < util::kFrameHeaderSize + len) {
              ADD_FAILURE() << "partial frame visible to the reader";
              return buffered;
            }
            ids.push_back(r.u32());
            return util::kFrameHeaderSize + len;
          },
          &end);
      if (end) current = (current == &dis_a) ? &dis_b : &dis_a;
      if (n == 0) std::this_thread::yield();
    }
  });

  splice_back_and_forth(dos, dis_a, dis_b, pacing);
  writer.join();
  reader.join();

  EXPECT_EQ(pacing.executed.load(), static_cast<std::size_t>(kSplices));
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(ids[i], static_cast<std::uint32_t>(i));
}

// Same integrity property through the batched util::FrameReader, with the
// writer batching eight frames per try_write_vec transaction: splices only
// ever land between transactions, so a fresh FrameReader per epoch must
// see whole frames only.
TEST(DetachableStream, FramesSurviveSplicesBatchedReader) {
  DetachableInputStream dis_a, dis_b;
  DetachableOutputStream dos;
  connect(dos, dis_a);

  constexpr int kFrames = 2000;
  constexpr int kBatch = 8;
  constexpr int kSplices = 30;
  SplicePacing pacing(kFrames, kSplices);
  std::thread writer([&] {
    util::Rng rng(7);
    std::vector<Bytes> frames;
    std::vector<ByteSpan> segs;
    for (int i = 0; i < kFrames; i += kBatch) {
      pacing.writer_wait(static_cast<std::size_t>(i));
      frames.clear();
      segs.clear();
      for (int j = i; j < std::min(i + kBatch, kFrames); ++j) {
        const Bytes payload = numbered_frame(rng, j);
        util::Writer header;
        header.u16(util::kFrameMagic);
        header.u32(static_cast<std::uint32_t>(payload.size()));
        frames.push_back(header.take());
        frames.push_back(payload);
      }
      for (const Bytes& f : frames) segs.emplace_back(f);
      while (!dos.try_write_vec(segs)) std::this_thread::yield();
      pacing.sent = static_cast<std::size_t>(std::min(i + kBatch, kFrames));
    }
    pacing.writer_wait(kFrames);
    dos.close();
  });

  std::vector<std::uint32_t> ids;
  std::thread reader([&] {
    DetachableInputStream* current = &dis_a;
    while (ids.size() < static_cast<std::size_t>(kFrames)) {
      util::FrameReader frames(*current);
      bool end = false;
      while (!end && ids.size() < static_cast<std::size_t>(kFrames)) {
        auto frame = frames.poll(&end);
        if (!frame) {
          if (!end) std::this_thread::yield();
          continue;
        }
        util::Reader r(*frame);
        ids.push_back(r.u32());
      }
      current = (current == &dis_a) ? &dis_b : &dis_a;
    }
  });

  splice_back_and_forth(dos, dis_a, dis_b, pacing);
  writer.join();
  reader.join();

  EXPECT_EQ(pacing.executed.load(), static_cast<std::size_t>(kSplices));
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(ids[i], static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Torn-frame regression: a ring that ends inside a frame must surface as a
// deterministic SerialError at the refill that meets it, never as a silent
// short read or a clean-looking EOF. (No chain stage writes part of a
// frame; a raw try_write_some writer can.)

TEST(DetachableStream, SoftEofBetweenHeaderAndPayloadThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  // A complete 6-byte header promising 100 payload bytes — then the filter
  // is detached before any payload arrives.
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u32(100);
  dos.try_write_some(w.bytes());
  dis.mark_soft_eof();
  util::FrameReader frames(dis);
  bool end = false;
  EXPECT_THROW(frames.poll(&end), util::SerialError);
}

TEST(DetachableStream, SoftEofMidHeaderThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u8(3);  // header cut short: 3 of 6 bytes
  dos.try_write_some(w.bytes());
  dis.mark_soft_eof();
  util::FrameReader frames(dis);
  bool end = false;
  EXPECT_THROW(frames.poll(&end), util::SerialError);
}

TEST(DetachableStream, SoftEofMidPayloadThrowsFromFrameReader) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  ASSERT_TRUE(util::try_write_frame(dos, to_bytes("whole frame")));
  util::Writer w;
  w.u16(util::kFrameMagic);
  w.u32(100);
  dos.try_write_some(w.bytes());
  dos.try_write_some(to_bytes("only a fragment"));
  dis.mark_soft_eof();

  util::FrameReader frames(dis);
  bool end = false;
  // The refill takes the whole frame and the torn one: it throws, and
  // hands out no part of that read.
  EXPECT_THROW(frames.poll(&end), util::SerialError);
}

TEST(DetachableStream, CleanSoftEofAtFrameBoundaryIsNotAnError) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  ASSERT_TRUE(util::try_write_frame(dos, to_bytes("whole")));
  dis.mark_soft_eof();
  util::FrameReader frames(dis);
  bool end = false;
  auto frame = frames.poll(&end);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frames.poll(&end).has_value());  // clean EOF, no throw
  EXPECT_TRUE(end);
}

// ---------------------------------------------------------------------------
// Vectored writes

TEST(DetachableStream, WriteVecConcatenatesSegments) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  const Bytes a = to_bytes("one"), b = to_bytes("+two"), c = to_bytes("+3");
  const std::array<ByteSpan, 3> segs = {ByteSpan(a), ByteSpan(b), ByteSpan(c)};
  EXPECT_TRUE(dos.try_write_vec(segs));
  EXPECT_EQ(dis.available(), 9u);
  EXPECT_EQ(drain(dis), "one+two+3");
  EXPECT_EQ(dos.bytes_sent(), 9u);
}

TEST(DetachableStream, WriteVecEmptySegmentsAreNoOps) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  const Bytes a = to_bytes("data");
  const std::array<ByteSpan, 3> segs = {ByteSpan(), ByteSpan(a), ByteSpan()};
  EXPECT_TRUE(dos.try_write_vec(segs));
  EXPECT_EQ(drain(dis), "data");
}

// A transaction larger than the ring cannot land beside other bytes: it is
// refused (watcher armed) until the reader drains the ring, then the ring's
// bound grows to the write's size and the transaction lands whole.
TEST(DetachableStream, WriteVecLargerThanRingDelivers) {
  DetachableInputStream dis(64);  // tiny ring
  DetachableOutputStream dos;
  CountingScheduler sched;
  dos.set_write_scheduler(&sched);
  connect(dos, dis);
  const Bytes a = sequential_bytes(300, 0), b = sequential_bytes(300, 100);
  const std::array<ByteSpan, 2> segs = {ByteSpan(a), ByteSpan(b)};

  EXPECT_EQ(dos.try_write_some(to_bytes("head")), 4u);
  EXPECT_FALSE(dos.try_write_vec(segs));  // the ring holds bytes: refused
  EXPECT_EQ(drain(dis), "head");
  EXPECT_EQ(sched.writable.load(), 1);  // the drain fired the writer
  EXPECT_TRUE(dos.try_write_vec(segs));
  Bytes expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  Bytes received;
  poll_append(dis, received);
  EXPECT_EQ(received, expect);
}

TEST(DetachableStream, WriteVecLandsEntirelyInOneSink) {
  // The vectored analogue of InFlightWriteLandsEntirelyInOneSink: a pause
  // racing a multi-segment transaction must never split the segments
  // across two sinks (this is exactly what keeps a frame's header and
  // payload together when try_write_frame meets a splice).
  race_one_write_against_a_splice(2);
}

// The largest write a stream accepts is one frame: util::kMaxFrameSize of
// payload plus its 6-byte header. Anything larger can never land whole and
// is refused with a StreamError, leaving the stream usable.
TEST(DetachableStream, WriteVecLargerThanTheLargestFrameThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  // Sixteen views of one MiB plus a header: exactly the largest frame.
  const Bytes mib(1 << 20, 0x5a);
  const Bytes header(util::kFrameHeaderSize, 0x01);
  std::vector<ByteSpan> segs(util::kMaxFrameSize / mib.size(), ByteSpan(mib));
  segs.emplace_back(header);

  const Bytes one = to_bytes("!");
  segs.emplace_back(one);  // one byte over the largest frame
  EXPECT_THROW(dos.try_write_vec(segs), StreamError);
  EXPECT_EQ(dis.available(), 0u);

  segs.pop_back();  // exactly the largest frame: lands whole
  EXPECT_TRUE(dos.try_write_vec(segs));
  EXPECT_EQ(dis.available(),
            std::size_t{util::kMaxFrameSize} + util::kFrameHeaderSize);
}

// ---------------------------------------------------------------------------
// Borrow reads

TEST(DetachableStream, ReadBorrowConsumesWhatVisitorTook) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(to_bytes("abcdef"));

  std::string seen;
  bool end = false;
  const std::size_t n = dis.poll_read_borrow(
      0,
      [&](ByteSpan x, ByteSpan y) -> std::size_t {
        seen.append(reinterpret_cast<const char*>(x.data()), x.size());
        seen.append(reinterpret_cast<const char*>(y.data()), y.size());
        return 4;  // consume a prefix only
      },
      &end);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seen, "abcdef");
  EXPECT_EQ(dis.available(), 2u);  // the tail stays buffered
  EXPECT_EQ(drain(dis), "ef");
}

TEST(DetachableStream, ReadBorrowHonorsMaxLimit) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(sequential_bytes(100));
  bool end = false;
  const std::size_t n = dis.poll_read_borrow(
      16,
      [&](ByteSpan x, ByteSpan y) -> std::size_t {
        EXPECT_LE(x.size() + y.size(), 16u);
        return x.size() + y.size();
      },
      &end);
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(dis.available(), 84u);
}

TEST(DetachableStream, ReadBorrowReturnsZeroAtEof) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.close();
  bool visited = false;
  bool end = false;
  const std::size_t n = dis.poll_read_borrow(
      0,
      [&](ByteSpan, ByteSpan) {
        visited = true;
        return std::size_t{0};
      },
      &end);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(end);
  EXPECT_FALSE(visited);  // EOF short-circuits: visitor never runs
}

TEST(DetachableStream, ReadBorrowVisitorNoProgressThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(to_bytes("data"));
  bool end = false;
  EXPECT_THROW(
      dis.poll_read_borrow(
          0, [](ByteSpan, ByteSpan) { return std::size_t{0}; }, &end),
      StreamError);
  EXPECT_EQ(dis.available(), 4u);  // the buffer is untouched
}

TEST(DetachableStream, ReadBorrowOverconsumingVisitorThrows) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  connect(dos, dis);
  dos.try_write_some(to_bytes("data"));
  bool end = false;
  EXPECT_THROW(dis.poll_read_borrow(
                   0,
                   [](ByteSpan x, ByteSpan y) {
                     return x.size() + y.size() + 1;
                   },
                   &end),
               StreamError);
  EXPECT_EQ(dis.available(), 4u);  // the buffer is untouched
}

// ---------------------------------------------------------------------------
// One-shot watchers: a fire is issued only to a watcher a would-block poll
// armed, and at most once per arming.

TEST(DetachableStream, NotifiesSuppressedWhenNobodyWaits) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  CountingScheduler sched;
  dis.set_read_scheduler(&sched);
  dos.set_write_scheduler(&sched);
  connect(dos, dis);
  // Strictly alternating use that never finds the stream empty or full: no
  // poll arms, so no write or read fires anything.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dos.try_write_some(to_bytes("ping")), 4u);
    EXPECT_EQ(drain(dis), "ping");
  }
  EXPECT_EQ(sched.readable.load(), 0);
  EXPECT_EQ(sched.writable.load(), 0);
}

TEST(DetachableStream, NotifyIssuedWhenReaderIsParked) {
  DetachableInputStream dis;
  DetachableOutputStream dos;
  CountingScheduler sched;
  dis.set_read_scheduler(&sched);
  connect(dos, dis);
  // An empty poll arms the reader; the first write fires it exactly once,
  // and later writes do not fire again until another empty poll re-arms.
  Bytes out;
  bool end = true;
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
  EXPECT_FALSE(end);
  EXPECT_EQ(sched.readable.load(), 0);
  dos.try_write_some(to_bytes("wake!"));
  EXPECT_EQ(sched.readable.load(), 1);
  dos.try_write_some(to_bytes("again"));
  EXPECT_EQ(sched.readable.load(), 1);
  EXPECT_EQ(drain(dis), "wake!again");
  EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);  // re-arms
  dos.try_write_some(to_bytes("!"));
  EXPECT_EQ(sched.readable.load(), 2);
}

// A writer refused mid-splice arms at the DOS (there is no sink to arm at);
// reconnect() fires it exactly once, wherever the DOS reconnects.
TEST(DetachableStream, PausedWriteArmsAtTheDosAndReconnectFiresItOnce) {
  DetachableInputStream dis1, dis2;
  DetachableOutputStream dos;
  CountingScheduler sched;
  dos.set_write_scheduler(&sched);
  connect(dos, dis1);
  dos.pause();
  EXPECT_FALSE(util::try_write_frame(dos, to_bytes("frame")));
  EXPECT_EQ(dos.try_write_some(to_bytes("bytes")), 0u);
  EXPECT_EQ(sched.writable.load(), 0);
  dos.reconnect(dis2);
  EXPECT_EQ(sched.writable.load(), 1);
  EXPECT_TRUE(util::try_write_frame(dos, to_bytes("frame")));
  drain(dis2);
  dos.pause();
  dos.reconnect(dis1);  // nothing armed: no fire
  EXPECT_EQ(sched.writable.load(), 1);
}

// Each close fires the watcher of the side left waiting: a reader armed on
// an empty ring observes EOF, a writer armed on a full ring or at a paused
// DOS observes BrokenPipe on its retry.
TEST(DetachableStream, CloseFiresTheArmedReaderAndWriter) {
  {  // DOS::close fires the armed reader: EOF
    DetachableInputStream dis;
    DetachableOutputStream dos;
    CountingScheduler sched;
    dis.set_read_scheduler(&sched);
    connect(dos, dis);
    Bytes out;
    bool end = true;
    EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
    dos.close();
    EXPECT_EQ(sched.readable.load(), 1);
    EXPECT_EQ(poll_append(dis, out, 0, &end), 0u);
    EXPECT_TRUE(end);
  }
  {  // DIS::close fires the writer armed on the full ring: BrokenPipe
    DetachableInputStream dis(8);
    DetachableOutputStream dos;
    CountingScheduler sched;
    dos.set_write_scheduler(&sched);
    connect(dos, dis);
    EXPECT_EQ(dos.try_write_some(sequential_bytes(12)), 8u);  // armed
    dis.close();
    EXPECT_EQ(sched.writable.load(), 1);
    EXPECT_THROW(dos.try_write_some(sequential_bytes(4)), BrokenPipe);
  }
  {  // DOS::close fires its own writer armed on the full ring: BrokenPipe
    DetachableInputStream dis(8);
    DetachableOutputStream dos;
    CountingScheduler sched;
    dos.set_write_scheduler(&sched);
    connect(dos, dis);
    EXPECT_EQ(dos.try_write_some(sequential_bytes(12)), 8u);  // armed
    dos.close();
    EXPECT_EQ(sched.writable.load(), 1);
    EXPECT_THROW(dos.try_write_some(sequential_bytes(4)), BrokenPipe);
    EXPECT_EQ(drain(dis).size(), 8u);  // what landed is still delivered
  }
  {  // DOS::close fires the writer armed at the paused DOS: BrokenPipe
    DetachableInputStream dis;
    DetachableOutputStream dos;
    CountingScheduler sched;
    dos.set_write_scheduler(&sched);
    connect(dos, dis);
    dos.pause();
    EXPECT_FALSE(util::try_write_frame(dos, to_bytes("x")));
    dos.close();
    EXPECT_EQ(sched.writable.load(), 1);
    EXPECT_THROW(util::try_write_frame(dos, to_bytes("x")), BrokenPipe);
  }
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
  bool end = false;
  for (std::uint8_t i = 0; i < 64; ++i) {
    const auto frame = frames.poll(&end);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, sequential_bytes(333, i));
  }
  EXPECT_FALSE(frames.poll(&end).has_value());
  EXPECT_TRUE(end);
  EXPECT_EQ(dis.ring_bytes(), 32768u);  // storage never shrinks
}

}  // namespace
}  // namespace rapidware::core
