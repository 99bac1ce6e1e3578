// Abstract non-blocking byte-stream interfaces. The detachable stream
// classes in src/core implement them; framing (util::FrameReader,
// util::try_write_frame) is written against them so it is testable over an
// in-memory stream. Nothing here waits: a read or write that cannot make
// progress returns at once and arms the stream's readiness watcher (a
// Scheduler, the one callback type net::SimSocket arms too), and the
// outside world meets a chain through the packet endpoints
// (core/endpoint.h).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#include "util/bytes.h"

namespace rapidware::util {

/// Non-owning callable reference used by the zero-copy read path: invoked
/// with (up to) two contiguous spans of buffered data, returns how many of
/// the offered bytes it consumed. Never allocates (unlike std::function),
/// so passing a capturing lambda on the data path is free.
class SpanVisitor {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::remove_cvref_t<F>, SpanVisitor>>>
  SpanVisitor(F&& f)  // NOLINT: implicit by design, mirrors function_ref
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, ByteSpan a, ByteSpan b) -> std::size_t {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(a, b);
        }) {}

  std::size_t operator()(ByteSpan a, ByteSpan b) const {
    return call_(obj_, a, b);
  }

 private:
  void* obj_;
  std::size_t (*call_)(void*, ByteSpan, ByteSpan);
};

/// Readiness-notification target for non-blocking consumers and producers
/// (docs/data_plane.md, "Worker model"). An I/O object fires a callback at
/// most once per arming: the watcher arms itself by returning would-block
/// from a poll (ByteSource::poll_read_borrow, ByteSink::try_write_vec,
/// net::SimSocket::poll_recv), and the next state change that could clear
/// the block — data arrival, space freed, reconnect, EOF, close — disarms
/// and fires. Callbacks run on the thread that caused the change (a
/// detachable stream fires under the stream lock that noticed it), so
/// implementations must only post to their worker's queue; they must never
/// block or call back into the object.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// The watched input may now have data or a final EOF to report.
  virtual void on_readable() = 0;

  /// The watched output may now accept a write it previously refused.
  virtual void on_writable() = 0;
};

/// Non-blocking byte producer.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Invokes `visit` once with the buffered bytes as up to two contiguous
  /// spans (at most `max` bytes total; 0 means "no limit") and removes the
  /// bytes the visitor reports consumed; returns that count. The visitor
  /// must consume at least one byte and no more than it was offered. When
  /// nothing is buffered the call returns 0 without blocking and sets
  /// `*end` to whether the stream has ended; the empty-and-open case arms
  /// the source's read scheduler so the consumer is re-driven when data (or
  /// EOF) arrives.
  virtual std::size_t poll_read_borrow(std::size_t max, SpanVisitor visit,
                                       bool* end) = 0;
};

/// Non-blocking byte consumer.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// All-or-nothing vectored write: either every segment lands back to
  /// back in one transaction (never interleaved with another write, never
  /// torn across a reconnect) and the call returns true, or nothing is
  /// accepted and the call returns false after arming the sink's write
  /// scheduler.
  virtual bool try_write_vec(std::span<const ByteSpan> segments) = 0;
};

}  // namespace rapidware::util
