// Byte-buffer utilities shared by the stream, network, and codec layers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rapidware::util {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

/// Converts a string to a byte vector (no terminator).
Bytes to_bytes(std::string_view s);

/// Converts bytes back to a std::string.
std::string to_string(ByteSpan b);

/// Hex-encodes bytes, e.g. {0xde, 0xad} -> "dead". For logs and tests.
std::string to_hex(ByteSpan b);

/// Bounded single-producer/single-consumer style ring buffer of bytes.
///
/// This is a plain data structure: it performs no locking. The detachable
/// stream layer wraps it with a mutex and condition variables. The bound
/// (`capacity()`) is what backpressure sees; the storage behind it is
/// allocated on the first write and doubles from 4 KiB toward the bound as
/// the contents need it, so a ring that is never written holds no memory.
class ByteRing {
 public:
  explicit ByteRing(std::size_t capacity);

  std::size_t capacity() const noexcept { return bound_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t free_space() const noexcept { return bound_ - size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == bound_; }

  /// Bytes of storage allocated so far: 0 until the first write, never
  /// more than capacity().
  std::size_t storage() const noexcept { return storage_; }

  /// Appends up to `in.size()` bytes; returns how many were written.
  std::size_t write(ByteSpan in);

  /// Segment-aware write: appends the segments back to back, as if they had
  /// been concatenated, stopping when the ring fills. Returns the total
  /// number of bytes written (a segment boundary is never visible in the
  /// ring — the cut, if any, lands wherever the ring ran out of space).
  std::size_t write(std::span<const ByteSpan> segments);

  /// Removes up to `out.size()` bytes into `out`; returns how many were read.
  std::size_t read(MutableByteSpan out);

  /// Copies up to `out.size()` bytes without consuming them.
  std::size_t peek(MutableByteSpan out) const;

  /// Borrow API: the buffered bytes as (up to) two contiguous spans — the
  /// second is non-empty only when the content wraps past the end of the
  /// backing array. The spans alias the ring's storage and are invalidated
  /// by any mutating call; pair with consume().
  std::array<ByteSpan, 2> read_spans() const noexcept;

  /// Discards the first `n` buffered bytes (n <= size()). With read_spans()
  /// this is the zero-copy read path: inspect the spans, then consume what
  /// was actually used.
  void consume(std::size_t n) noexcept;

  /// Discards all contents.
  void clear() noexcept;

  /// Raises an EMPTY ring's bound to `capacity` (never lowers it); the
  /// storage follows on the next write. How a detachable stream makes room
  /// for a frame larger than its ring without ever splitting it.
  void grow(std::size_t capacity);

 private:
  static constexpr std::size_t kMinStorage = 4096;

  /// Reallocates the storage to hold at least `need` (<= bound) bytes,
  /// moving the possibly wrapped contents to the front.
  void reserve(std::size_t need);

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t storage_ = 0;  // bytes allocated at buf_
  std::size_t bound_;        // capacity(): what backpressure sees
  std::size_t head_ = 0;     // next read position
  std::size_t size_ = 0;     // bytes currently stored
};

}  // namespace rapidware::util
