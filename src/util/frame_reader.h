// Batched frame decoder over a ByteSource.
//
// poll() drains whatever the source has buffered in ONE poll_read_borrow()
// call, parses every frame in that batch directly out of the stream's ring
// spans (payload is memcpy'd exactly once, into a pooled buffer), and hands
// the frames out of its ready queue on subsequent poll() calls without
// touching the stream. Every writer lands whole frames (util/framing.h), so
// a refill ends on a frame boundary; one that does not is a torn stream and
// throws. Under load, a chain hop pays ~1/k of a lock acquisition per
// frame, where k is however many frames the writer batched ahead.
//
// Not thread-safe: a FrameReader belongs to the stream's single consumer
// (the same one-reader contract the stream itself has).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

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

  /// Returns the next frame payload without blocking. nullopt with
  /// *end == false means would-block (the source armed its read
  /// scheduler — re-drive from the callback); nullopt with *end == true is
  /// end-of-stream, and stays so. Throws SerialError on bad magic, an
  /// oversized length, or a refill that ends mid-frame (torn frame); what
  /// the source throws propagates. A reader that threw is done.
  std::optional<Bytes> poll(bool* end);

  /// Frames decoded so far.
  std::uint64_t frames() const noexcept { return frames_; }

  /// Refills that brought bytes so far: frames()/refills() is the measured
  /// batching factor (1.0 = one lock acquisition per frame; higher =
  /// fewer).
  std::uint64_t refills() const noexcept { return refills_; }

 private:
  /// Decodes every frame in a + b into ready_.
  void ingest(ByteSpan a, ByteSpan b);

  ByteSource& source_;
  std::vector<Bytes> ready_;  // decoded frames, FIFO via ready_pos_
  std::size_t ready_pos_ = 0;
  bool eof_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t refills_ = 0;
};

}  // namespace rapidware::util
