// Batched frame decoder over a ByteSource.
//
// poll() drains whatever the source has buffered in ONE poll_read_borrow()
// call, parses every complete frame in that batch directly out of the
// stream's ring spans (payload is memcpy'd exactly once, into a pooled
// buffer), and hands the frames out of its ready queue on subsequent
// poll() calls without touching the stream. A frame split across refills
// (a byte stage upstream cuts frames at arbitrary offsets) is stashed and
// completed by the next refill. Under load, a chain hop pays ~1/k of a lock
// acquisition per frame, where k is however many frames the writer batched
// ahead.
//
// Not thread-safe: a FrameReader belongs to the stream's single consumer
// (the same one-reader contract the stream itself has).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/io.h"

namespace rapidware::util {

class FrameReader {
 public:
  /// Frames' payload buffers are acquired from the CALLING thread's
  /// arena, resolved per refill via BufferPool::local() — a FrameReader
  /// constructed on a control thread but drained on a worker thread
  /// (PacketFilter::event_start builds one, on_ready drives it) acquires
  /// from the worker's pool, not the control thread's. Callers that move
  /// frames along (PacketFilter::emit(Bytes&&)) keep the capacity cycling.
  explicit FrameReader(ByteSource& source);

  /// Pins every acquire to `pool` regardless of thread (tests, and
  /// thread-dispatch paths that want the process pool explicitly).
  FrameReader(ByteSource& source, BufferPool& pool);

  /// Returns the next frame payload without blocking. nullopt with
  /// *end == false means would-block (the source armed its read
  /// scheduler — re-drive from the callback); nullopt with *end == true is
  /// clean end-of-stream at a frame boundary. Throws SerialError on bad
  /// magic, oversized length, or a stream that ends mid-frame (torn frame).
  std::optional<Bytes> poll(bool* end);

  /// Frames decoded so far.
  std::uint64_t frames() const noexcept { return frames_; }

  /// Refills that brought bytes so far: frames()/refills() is the measured
  /// batching factor (1.0 = one lock acquisition per frame; higher =
  /// fewer).
  std::uint64_t refills() const noexcept { return refills_; }

 private:
  /// Parses every complete frame in stash_ + a + b; the incomplete tail (if
  /// any) becomes the new stash_. Consumes all offered bytes.
  void ingest(ByteSpan a, ByteSpan b);

  std::optional<Bytes> take_ready();
  [[noreturn]] void throw_torn() const;

  /// The thread-appropriate arena for this refill (pinned pool, or the
  /// calling thread's BufferPool::local()).
  BufferPool& arena() const noexcept {
    return pool_ != nullptr ? *pool_ : BufferPool::local();
  }

  ByteSource& source_;
  BufferPool* const pool_;  // nullptr = dynamic (thread-local) resolution
  Bytes stash_;  // partial frame carried across refills (header-first bytes)
  std::vector<Bytes> ready_;  // decoded frames, FIFO via ready_pos_
  std::size_t ready_pos_ = 0;
  bool eof_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t refills_ = 0;
};

}  // namespace rapidware::util
