// Detachable I/O streams — the paper's core mechanism (Section 4).
//
// A DetachableOutputStream (DOS) / DetachableInputStream (DIS) pair behaves
// like a piped byte stream, with the buffer held at the input side. Unlike
// ordinary piped streams, the pair can be:
//
//   * paused      — new writes block, in-flight writes complete in full,
//                   the reader drains the buffer, then both halves are
//                   marked disconnected;
//   * reconnected — either half may be attached to a *different* peer,
//                   waking any reader/writer that blocked while paused;
//   * restarted   — data flows again with no byte lost, duplicated, or
//                   reordered.
//
// This is the "glue" that lets the filter chain insert, delete, and reorder
// proxy filters on a running data stream. As in the paper, pause() and
// reconnect() invoked on a DIS are reference calls forwarded to the peer DOS.
//
// Concurrency contract: one consumer per DIS and one producer per DOS.
// Inside a chain that is a filter's non-blocking drive on its worker
// (poll_read_borrow / try_write_*); outside one it may be an external
// thread using the blocking read_some()/write() calls the paper defines.
// Any thread may invoke control operations (pause/reconnect/close), but
// concurrent control operations on the same stream must be serialized by
// the caller (FilterChain does this).
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

class DetachableOutputStream;
class DetachableInputStream;

/// Readiness-notification target for event-driven stream consumers and
/// producers (docs/data_plane.md, "Worker model"). A stream fires a
/// callback at most once per arming: the watcher arms itself by returning
/// would-block from a poll (poll_read_borrow / try_write_*), and the next
/// state change that could clear the block — data arrival, space freed,
/// reconnect, EOF, close — disarms and fires. Callbacks run UNDER the
/// stream lock that noticed the change, so implementations must only post
/// to their worker's queue; they must never call back into a stream.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// The watched input may now have data or a final EOF to report.
  virtual void on_readable() = 0;

  /// The watched output may now accept a write it previously refused.
  virtual void on_writable() = 0;
};

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

  /// Wakes every waiter class: readers, blocked writers, and a pauser
  /// waiting for the ring to drain. The shared tail of the close paths.
  void wake_all() RW_REQUIRES(mu) {
    readable.notify_all();
    writable.notify_all();
    drained.notify_all();
    fire_readable();
    fire_writable();
  }

  /// Data-path notify with wakeup suppression: the one-reader contract
  /// means at most one thread can be parked on `readable`, and the waiting
  /// count (maintained around every wait) tells us whether it is parked
  /// right now. When it is not, the notify — and its futex syscall — is
  /// skipped entirely. Control paths (pause/reconnect/close) do NOT use
  /// this; they notify_all unconditionally.
  void notify_data_readable() RW_REQUIRES(mu) {
    if (readers_waiting > 0) {
      readable.notify_one();
      ++wakeups;
    } else {
      ++wakeups_suppressed;
    }
    fire_readable();
  }

  /// Same suppression for the single writer parked on `writable`.
  void notify_data_writable() RW_REQUIRES(mu) {
    if (writers_waiting > 0) {
      writable.notify_one();
      ++wakeups;
    } else {
      ++wakeups_suppressed;
    }
    fire_writable();
  }

  /// A pauser waiting in drained is rare; when none is registered the
  /// reader's became-empty notification is skipped (previously this fired
  /// on every transition to empty — once per packet on a latency-bound
  /// pipe). notify_all: concurrent pause() and close() may both wait.
  void notify_drained() RW_REQUIRES(mu) {
    if (drain_waiting > 0) {
      drained.notify_all();
      ++wakeups;
    } else {
      ++wakeups_suppressed;
    }
  }

  rw::Mutex mu{"core/stream_input", rw::lockrank::kStreamInput};
  rw::CondVar readable;  // data arrived / state changed
  rw::CondVar writable;  // space freed / reader closed
  rw::CondVar drained;   // ring became empty
  util::ByteRing ring RW_GUARDED_BY(mu);

  DetachableOutputStream* source RW_GUARDED_BY(mu) = nullptr;
  bool connected RW_GUARDED_BY(mu) = false;
  bool swflag RW_GUARDED_BY(mu) = false;        // pause in progress or paused
  bool write_closed RW_GUARDED_BY(mu) = false;  // hard EOF: source closed
  bool soft_eof RW_GUARDED_BY(mu) = false;      // detach EOF: report EOF once
                                                // drained; cleared by the next
                                                // reconnect (filter removal)
  bool reader_closed RW_GUARDED_BY(mu) = false;

  // Readiness watchers (event-driven mode). The readable watcher is
  // installed by the DIS owner and stays for the filter's hosted lifetime;
  // the writable watcher follows the connected DOS across reconnects. The
  // armed flags implement the one-shot contract: set by a would-block poll
  // under mu, cleared by the fire under the same mu — the serialization
  // that makes lost wakeups impossible.
  Scheduler* read_sched RW_GUARDED_BY(mu) = nullptr;
  bool read_armed RW_GUARDED_BY(mu) = false;
  Scheduler* write_sched RW_GUARDED_BY(mu) = nullptr;
  bool write_armed RW_GUARDED_BY(mu) = false;

  // Parked-thread registry for the suppression helpers above. Maintained
  // (++/-- under mu) around every predicate wait on the matching CV.
  int readers_waiting RW_GUARDED_BY(mu) = 0;
  int writers_waiting RW_GUARDED_BY(mu) = 0;
  int drain_waiting RW_GUARDED_BY(mu) = 0;

  std::uint64_t bytes_in RW_GUARDED_BY(mu) = 0;
  std::uint64_t bytes_out RW_GUARDED_BY(mu) = 0;
  std::uint64_t wakeups RW_GUARDED_BY(mu) = 0;  // data-path notifies issued
  std::uint64_t wakeups_suppressed RW_GUARDED_BY(mu) = 0;  // ...skipped
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

  /// Blocks until data is available, the stream reports EOF (returns 0), or
  /// the pipe is paused-and-later-reconnected (in which case it keeps
  /// waiting transparently — this is what makes filter insertion invisible
  /// to downstream readers).
  std::size_t read_some(util::MutableByteSpan out) override;

  /// Zero-copy batched read: blocks like read_some(), then offers the whole
  /// buffered contents as the ring's (up to) two contiguous spans, under a
  /// single lock acquisition. Only the bytes the visitor reports consumed
  /// are removed; the rest stay buffered for the next read. The visitor
  /// runs with the stream lock held — it must not call back into this
  /// stream or its peer, and must consume at least one byte.
  std::size_t read_borrow(std::size_t max, util::SpanVisitor visit) override;

  /// Non-blocking read for the event-driven drive mode: like read_borrow()
  /// when data is buffered; otherwise returns 0 immediately, reporting
  /// end-of-stream via `*end` and arming the readable watcher when the
  /// stream is merely empty (so the owning worker is re-driven on arrival).
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

  /// Control-plane detach: once the buffer drains, read_some() returns 0
  /// exactly as on EOF, letting the owning filter flush and exit its loop
  /// without closing its output. Cleared by the next reconnect.
  void mark_soft_eof();

  std::uint64_t bytes_received() const;
  std::uint64_t bytes_delivered() const;

  /// Data-path CV notifies actually issued on this pipe (both directions).
  std::uint64_t wakeups() const;

  /// Data-path notifies skipped because no thread was parked. The ratio
  /// suppressed/(issued+suppressed) is exported per filter as
  /// rw_filter_wakeups_suppressed (docs/observability.md).
  std::uint64_t wakeups_suppressed() const;

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

  /// Writes all of `in`. If the stream is paused or disconnected, blocks
  /// until a reconnect supplies a new sink. A write that has begun always
  /// lands contiguously in a single sink: pause() waits for it, so framed
  /// messages are never torn across a splice.
  void write(util::ByteSpan in) override;

  /// Single-transaction vectored write: every segment lands back to back in
  /// the same sink under ONE in-flight-write window and (space permitting)
  /// one lock acquisition — pause() cannot splice between segments, so a
  /// frame header and its payload written as two segments are as atomic as
  /// a pre-assembled copy, without the assembly.
  void write_vec(std::span<const util::ByteSpan> segments) override;

  /// Wakes the reader so buffered bytes are noticed promptly.
  void flush() override;

  /// Non-blocking all-or-nothing vectored write (event-driven drive mode):
  /// every segment lands back to back under one lock transaction, or
  /// nothing lands and the writable watcher is armed (paused/disconnected
  /// arms at this DOS; a full ring arms at the sink). Because mu_ is held
  /// across the whole transaction, a concurrent pause() can never splice
  /// between segments — the no-torn-frames contract without the in-flight
  /// writer window. A write larger than the sink ring (a big frame) waits
  /// for the ring to drain, which then raises its bound to the write's
  /// size.
  /// Throws BrokenPipe like write(); throws StreamError for a write larger
  /// than the largest frame (util::kMaxFrameSize plus its header).
  bool try_write_vec(std::span<const util::ByteSpan> segments) override;

  /// Non-blocking partial write: accepts what fits now, returns the count,
  /// and arms the writable watcher on any shortfall. Byte chunks may split
  /// across a reconnect (order is still preserved); framed data must use
  /// try_write_vec. ByteFilter's drive is the one caller.
  std::size_t try_write_some(util::ByteSpan in);

  /// Installs (or removes) the watcher fired when an armed try_write_*
  /// would now make progress. Travels with this DOS across reconnects.
  void set_write_scheduler(Scheduler* sched);

  /// Establishes the initial connection (alias for reconnect, kept for
  /// symmetry with the paper's connect()/reconnect() pair).
  void connect(DetachableInputStream& dis) { reconnect(dis); }

  /// Pauses the pipe: blocks new writes, completes in-flight writes, waits
  /// for the reader to drain the buffer, then marks both halves
  /// disconnected. Idempotent when already paused. Requires an active
  /// reader (or an already-empty buffer) to drain.
  void pause();

  /// Attaches this DOS to `dis`. Both halves must be disconnected.
  void reconnect(DetachableInputStream& dis);

  /// Hard EOF: the current sink's reader sees end-of-stream after draining;
  /// subsequent writes throw BrokenPipe. An in-flight write blocked on a
  /// full ring is woken and also throws (its already-buffered prefix is
  /// still delivered to the reader before EOF).
  void close();

  bool connected() const;

  /// Total bytes this DOS has delivered into any sink (across reconnects).
  std::uint64_t bytes_sent() const noexcept;

  /// Completed pause() calls that actually detached the pipe.
  std::uint64_t pauses() const;

  /// Cumulative microseconds writers spent blocked in write() waiting for a
  /// connect/unpause — the per-splice disruption the paper's Figure 7
  /// measures, accumulated as a running total.
  std::uint64_t blocked_micros() const;

 private:
  friend class DetachableInputStream;

  /// Retires one in-flight write and wakes a pending pause(); the shared
  /// tail of every write() exit path (normal and exceptional).
  void writer_done() RW_EXCLUDES(mu_);

  /// Common body of write() and write_vec(): one ready-wait, one in-flight
  /// window, all segments delivered contiguously to a single sink.
  void write_segments(std::span<const util::ByteSpan> segments)
      RW_EXCLUDES(mu_);

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
  rw::CondVar state_cv_;    // writers wait for connect/unpause
  rw::CondVar writers_cv_;  // pause waits for in-flight writes
  std::shared_ptr<detail::InputState> sink_ RW_GUARDED_BY(mu_);
  bool swflag_ RW_GUARDED_BY(mu_) = false;
  bool connected_ RW_GUARDED_BY(mu_) = false;
  bool closed_ RW_GUARDED_BY(mu_) = false;
  int active_writers_ RW_GUARDED_BY(mu_) = 0;
  int pause_waiters_ RW_GUARDED_BY(mu_) = 0;  // pauses parked in writers_cv_

  // Writable watcher of a polling producer. Armed here when a try_write_*
  // found the stream paused or disconnected (no sink to arm); reconnect()
  // and close() fire it. While connected the same watcher is mirrored into
  // the sink's InputState so a full-ring arm is fired by the draining
  // reader.
  Scheduler* write_sched_ RW_GUARDED_BY(mu_) = nullptr;
  bool write_armed_ RW_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::uint64_t pauses_ RW_GUARDED_BY(mu_) = 0;
  std::uint64_t blocked_us_ RW_GUARDED_BY(mu_) = 0;
};

/// Convenience: connect a fresh pair.
void connect(DetachableOutputStream& dos, DetachableInputStream& dis);

}  // namespace rapidware::core
