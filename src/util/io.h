// Abstract byte-stream interfaces. The detachable stream classes in
// src/core implement these; framing and filters are written against them so
// they are testable without threads. Only the detachable streams implement
// the non-blocking halves (poll_read_borrow, try_write_vec): every drive a
// worker runs reads and writes a chain stream, and the outside world meets
// the chain through the packet endpoints (core/endpoint.h).
#pragma once

#include <cstddef>
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

/// Readiness callback an I/O object below src/core arms when a poll comes
/// up empty (net::SimSocket::poll_recv): the next transition (a datagram
/// arrives, the socket closes) fires on_io_ready() exactly once — the
/// one-shot arm-under-the-lock protocol detachable streams use for parked
/// threads, exposed at this layer because net:: cannot name
/// core::Scheduler (core::IoReadyForwarder bridges the two). Fired from
/// the thread that caused the transition: implementations must only post
/// (never block, never re-enter the object).
class ReadyWatcher {
 public:
  virtual ~ReadyWatcher() = default;
  virtual void on_io_ready() = 0;
};

/// Blocking byte producer.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Blocks until at least one byte is available or the stream ends.
  /// Returns the number of bytes placed in `out`; 0 means end-of-stream.
  virtual std::size_t read_some(MutableByteSpan out) = 0;

  /// Zero-copy batched read: blocks like read_some(), then invokes `visit`
  /// once with the available bytes as up to two contiguous spans (at most
  /// `max` bytes total; 0 means "no limit"). The visitor returns how many
  /// bytes it consumed; only those are removed from the stream when the
  /// source can retain a tail (ring-backed sources — DetachableInputStream
  /// overrides this). The base-class adaptation over read_some() cannot
  /// retain bytes, so portable visitors must consume everything offered.
  /// Returns the bytes consumed; 0 means end-of-stream. If `visit` throws,
  /// ring-backed sources leave their buffer untouched.
  virtual std::size_t read_borrow(std::size_t max, SpanVisitor visit);

  /// Reads exactly `out.size()` bytes unless EOF intervenes; returns the
  /// number read (== out.size() normally, < on EOF). Callers that must
  /// distinguish a clean EOF from a torn read should use read_full().
  std::size_t read_exact(MutableByteSpan out);

  /// Like read_exact, but the EOF cases are distinguishable: returns true
  /// when `out` was filled completely, false on a clean end-of-stream
  /// before the first byte, and throws SerialError("<what>: ...") when the
  /// stream ends after at least one byte landed (a torn read — e.g. a
  /// detach EOF raised between a frame's header and its payload).
  bool read_full(MutableByteSpan out, const char* what);

  /// Non-blocking read_borrow for event-driven consumers. Offers whatever
  /// is immediately available exactly like read_borrow(); when nothing is
  /// buffered it returns 0 without blocking and sets `*end` to whether the
  /// stream has ended. The empty-and-open case arms the stream's read
  /// scheduler so the consumer is re-driven when data (or EOF) arrives.
  /// Other sources keep the throwing default — only
  /// core::DetachableInputStream implements this.
  virtual std::size_t poll_read_borrow(std::size_t max, SpanVisitor visit,
                                       bool* end);
};

/// Blocking byte consumer.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Blocks until all of `in` is accepted.
  virtual void write(ByteSpan in) = 0;

  /// Vectored write: accepts every segment, back to back, with the same
  /// atomicity as a single write() call — the concatenation is never
  /// interleaved with another writer's data and never torn across a
  /// reconnect. The default assembles one temporary buffer and calls
  /// write(); DetachableOutputStream overrides it with a true single-
  /// transaction implementation (one lock acquisition, no assembly copy).
  virtual void write_vec(std::span<const ByteSpan> segments);

  /// Pushes any buffered bytes toward the consumer. Default: no-op.
  virtual void flush() {}

  /// Non-blocking all-or-nothing vectored write for event-driven producers:
  /// either every segment lands back to back (one transaction, same
  /// atomicity as write_vec) and the call returns true, or nothing is
  /// accepted and the call returns false after arming the sink's write
  /// scheduler. Other sinks keep the throwing default — only
  /// core::DetachableOutputStream implements this.
  virtual bool try_write_vec(std::span<const ByteSpan> segments);
};

}  // namespace rapidware::util
