// Detachable I/O streams — the paper's core mechanism (Section 4).
//
// A DetachableOutputStream (DOS) / DetachableInputStream (DIS) pair behaves
// like a piped byte stream, with the buffer held at the input side. Unlike
// ordinary piped streams, the pair can be:
//
//   * paused      — new writes are refused and both halves are marked
//                   disconnected; buffered bytes stay for the reader;
//   * reconnected — either half may be attached to a *different* peer,
//                   re-driving any reader/writer that waited while paused;
//   * restarted   — data flows again with no byte lost, duplicated, or
//                   reordered.
//
// This is the "glue" that lets the filter chain insert, delete, and reorder
// proxy filters on a running data stream. As in the paper, pause() and
// reconnect() invoked on a DIS are reference calls forwarded to the peer DOS.
//
// Concurrency contract: one consumer per DIS and one producer per DOS, each
// a non-blocking drive (poll_read_borrow / try_write_*) that waits for a
// one-shot readiness watcher instead of parking a thread. Any thread may
// invoke control operations (pause/reconnect/close), but concurrent
// control operations on the same stream must be serialized by the caller
// (FilterChain does this).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/bytes.h"
#include "util/io.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

/// Base class for stream failures (the analogue of Java's IOException).
class StreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writing to a closed/abandoned stream.
class BrokenPipe : public StreamError {
 public:
  using StreamError::StreamError;
};

/// reconnect() onto a sink whose reader has not yet read the detach EOF of
/// its previous source: the old and the new epoch would merge into one.
class DetachEofPending : public StreamError {
 public:
  using StreamError::StreamError;
};

class DetachableOutputStream;
class DetachableInputStream;

/// The readiness callback type (util/io.h), named here where most of its
/// arms live.
using util::Scheduler;

namespace detail {

/// Shared state of one pipe; owned by the DIS (the paper buffers at the
/// input side), referenced by whichever DOS is currently connected.
/// Lock order: DetachableOutputStream::mu_ is always taken BEFORE this mu
/// when both are held (pause/reconnect/close hold them nested).
struct InputState {
  explicit InputState(std::size_t capacity) : ring(capacity) {}

  /// Marks the pipe disconnected from its source. The shared tail of
  /// DOS::pause() and DOS::close(). The writable watcher travels with the
  /// DOS, so it is uninstalled here; the readable watcher belongs to the
  /// DIS side and survives (the DIS owns this state for its lifetime).
  void detach_source() RW_REQUIRES(mu) {
    connected = false;
    source = nullptr;
    write_sched = nullptr;
    write_armed = false;
  }

  /// Fires the armed readable watcher, if any. One shot: re-armed only by
  /// the next would-block poll. Runs the callback under mu (contract in
  /// core::Scheduler).
  void fire_readable() RW_REQUIRES(mu) {
    if (read_sched != nullptr && read_armed) {
      read_armed = false;
      read_sched->on_readable();
    }
  }

  /// Same for the armed writable watcher of the connected DOS.
  void fire_writable() RW_REQUIRES(mu) {
    if (write_sched != nullptr && write_armed) {
      write_armed = false;
      write_sched->on_writable();
    }
  }

  rw::Mutex mu{"core/stream_input", rw::lockrank::kStreamInput};
  util::ByteRing ring RW_GUARDED_BY(mu);

  DetachableOutputStream* source RW_GUARDED_BY(mu) = nullptr;
  bool connected RW_GUARDED_BY(mu) = false;
  bool write_closed RW_GUARDED_BY(mu) = false;  // hard EOF: source closed
  bool soft_eof RW_GUARDED_BY(mu) = false;      // detach EOF: reported once
                                                // drained, then cleared
  bool reader_closed RW_GUARDED_BY(mu) = false;

  // Readiness watchers. The readable watcher is installed by the DIS owner
  // and stays for the filter's hosted lifetime; the writable watcher
  // follows the connected DOS across reconnects. The armed flags implement
  // the one-shot contract: set by a would-block poll under mu, cleared by
  // the fire under the same mu — the serialization that makes a lost
  // wake-up impossible.
  Scheduler* read_sched RW_GUARDED_BY(mu) = nullptr;
  bool read_armed RW_GUARDED_BY(mu) = false;
  Scheduler* write_sched RW_GUARDED_BY(mu) = nullptr;
  bool write_armed RW_GUARDED_BY(mu) = false;

  std::uint64_t bytes_in RW_GUARDED_BY(mu) = 0;
  std::uint64_t bytes_out RW_GUARDED_BY(mu) = 0;
};

}  // namespace detail

/// Input half. Owns the pipe buffer.
class DetachableInputStream final : public util::ByteSource {
 public:
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

  explicit DetachableInputStream(std::size_t capacity = kDefaultCapacity);
  ~DetachableInputStream() override;

  DetachableInputStream(const DetachableInputStream&) = delete;
  DetachableInputStream& operator=(const DetachableInputStream&) = delete;

  /// Offers the buffered bytes to `visit` as the ring's (up to) two
  /// contiguous spans, at most `max` of them (0: no limit), under one lock
  /// acquisition, and removes only the bytes the visitor reports consumed.
  /// The visitor runs with the stream lock held: it must not call back into
  /// this stream or its peer, and must consume at least one byte and no
  /// more than offered (StreamError otherwise, buffer untouched). An empty
  /// ring returns 0 at once: with `*end` set on EOF (hard, soft or reader
  /// closed; a soft EOF only this once), otherwise arming the readable
  /// watcher so the next arrival, EOF or splice re-drives the owner.
  std::size_t poll_read_borrow(std::size_t max, util::SpanVisitor visit,
                               bool* end) override;

  /// Installs (or, with nullptr, removes) the readiness watcher fired when
  /// an armed poll_read_borrow() would now make progress. The watcher
  /// persists across reconnects — the buffer state belongs to this DIS.
  void set_read_scheduler(Scheduler* sched);

  /// Bytes currently buffered.
  std::size_t available() const;

  /// Bytes of ring storage allocated: 0 until the first write, then
  /// doubling toward the capacity (util::ByteRing).
  std::size_t ring_bytes() const;

  bool connected() const;

  /// Forwards to the connected DOS (reference call, as in the paper).
  void pause();

  /// Forwards to dos.reconnect(*this).
  void reconnect(DetachableOutputStream& dos);

  /// Reader abandons the stream; connected/future writers get BrokenPipe.
  void close();

  /// Control-plane detach: once the buffer drains, poll_read_borrow()
  /// reports end-of-stream exactly as on EOF, letting the owning filter
  /// flush and finish its run without closing its output. Reported once:
  /// the report clears it, and until then reconnect() refuses this sink.
  void mark_soft_eof();

  std::uint64_t bytes_received() const;
  std::uint64_t bytes_delivered() const;

 private:
  friend class DetachableOutputStream;
  std::shared_ptr<detail::InputState> st_;
};

/// Output half.
class DetachableOutputStream final : public util::ByteSink {
 public:
  DetachableOutputStream() = default;
  ~DetachableOutputStream() override;

  DetachableOutputStream(const DetachableOutputStream&) = delete;
  DetachableOutputStream& operator=(const DetachableOutputStream&) = delete;

  /// All-or-nothing vectored write: every segment lands back to back under
  /// one lock transaction, or nothing lands and the writable watcher is
  /// armed (paused/disconnected arms at this DOS; a full ring arms at the
  /// sink). Because mu_ is held across the whole transaction, a concurrent
  /// pause() can never splice between segments: a frame's header and
  /// payload always land in one sink. A write larger than the sink ring (a
  /// big frame, or a null hop's run of frames) waits for the ring to drain,
  /// which then raises its bound to the write's size.
  /// Throws BrokenPipe once this DOS or the sink's reader has closed;
  /// throws StreamError for a write larger than the largest frame
  /// (util::kMaxFrameSize plus its header).
  bool try_write_vec(std::span<const util::ByteSpan> segments) override;

  /// Non-blocking partial write: accepts what fits now, returns the count,
  /// and arms the writable watcher on any shortfall. Byte chunks may split
  /// across a reconnect (order is still preserved), so no chain stage calls
  /// it: framed data must use try_write_vec. Raw byte pipes (the bare-pipe
  /// stress and bench rows, stream unit tests) write with it.
  std::size_t try_write_some(util::ByteSpan in);

  /// Installs (or removes) the watcher fired when an armed try_write_*
  /// would now make progress. Travels with this DOS across reconnects.
  void set_write_scheduler(Scheduler* sched);

  /// Establishes the initial connection (alias for reconnect, kept for
  /// symmetry with the paper's connect()/reconnect() pair).
  void connect(DetachableInputStream& dis) { reconnect(dis); }

  /// Pauses the pipe: refuses new writes (no write is ever in flight: each
  /// holds mu_ for its whole transaction) and marks both halves
  /// disconnected, leaving the buffered bytes to the sink's reader, ahead
  /// of whatever its next source writes. Idempotent when already paused.
  void pause();

  /// Attaches this DOS to `dis`. Both halves must be disconnected, and the
  /// sink's reader must have read its detach EOF (DetachEofPending).
  void reconnect(DetachableInputStream& dis);

  /// Hard EOF: the current sink's reader sees end-of-stream after draining;
  /// subsequent writes throw BrokenPipe. A writer armed on a full ring is
  /// fired, and its retry throws (what it already buffered is still
  /// delivered to the reader before EOF).
  void close();

  bool connected() const;

  /// Total bytes this DOS has delivered into any sink (across reconnects).
  std::uint64_t bytes_sent() const noexcept;

  /// Completed pause() calls that actually detached the pipe.
  std::uint64_t pauses() const;

 private:
  friend class DetachableInputStream;

  /// Fires the armed DOS-level writable watcher (paused/disconnected arm
  /// site); the sink-level arm site lives in InputState.
  void fire_write_ready_locked() RW_REQUIRES(mu_) {
    if (write_sched_ != nullptr && write_armed_) {
      write_armed_ = false;
      write_sched_->on_writable();
    }
  }

  // Lock order: mu_ BEFORE the sink's InputState::mu (always).
  mutable rw::Mutex mu_{"core/stream_output", rw::lockrank::kStreamOutput};
  std::shared_ptr<detail::InputState> sink_ RW_GUARDED_BY(mu_);
  bool swflag_ RW_GUARDED_BY(mu_) = false;
  bool connected_ RW_GUARDED_BY(mu_) = false;
  bool closed_ RW_GUARDED_BY(mu_) = false;

  // Writable watcher of the producer. Armed here when a try_write_*
  // found the stream paused or disconnected (no sink to arm); reconnect()
  // and close() fire it. While connected the same watcher is mirrored into
  // the sink's InputState so a full-ring arm is fired by the draining
  // reader.
  Scheduler* write_sched_ RW_GUARDED_BY(mu_) = nullptr;
  bool write_armed_ RW_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::uint64_t pauses_ RW_GUARDED_BY(mu_) = 0;
};

/// Convenience: connect a fresh pair.
void connect(DetachableOutputStream& dos, DetachableInputStream& dis);

}  // namespace rapidware::core
