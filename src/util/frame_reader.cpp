#include "util/frame_reader.h"

#include <cstring>
#include <utility>

#include "util/framing.h"
#include "util/serial.h"

namespace rapidware::util {

namespace {

/// Forward-only reader over up to three discontiguous pieces (the carried
/// stash plus the ring's two borrow spans). Copies are the only way out —
/// which is fine: header bytes go to a 6-byte stack buffer and payload
/// bytes go straight to their final pooled buffer, so each byte is copied
/// exactly once.
class Cursor {
 public:
  Cursor(ByteSpan s0, ByteSpan s1, ByteSpan s2) : pieces_{s0, s1, s2} {
    remaining_ = s0.size() + s1.size() + s2.size();
  }

  std::size_t remaining() const noexcept { return remaining_; }

  /// Copies out.size() bytes (caller guarantees remaining() is enough).
  void read(MutableByteSpan out) noexcept {
    std::size_t done = 0;
    while (done < out.size()) {
      const ByteSpan piece = pieces_[index_].subspan(offset_);
      const std::size_t n = std::min(out.size() - done, piece.size());
      if (n == 0) {
        ++index_;
        offset_ = 0;
        continue;
      }
      std::memcpy(out.data() + done, piece.data(), n);
      done += n;
      offset_ += n;
    }
    remaining_ -= out.size();
  }

 private:
  ByteSpan pieces_[3];
  std::size_t index_ = 0;
  std::size_t offset_ = 0;
  std::size_t remaining_ = 0;
};

}  // namespace

FrameReader::FrameReader(ByteSource& source)
    : source_(source), pool_(nullptr) {}

FrameReader::FrameReader(ByteSource& source, BufferPool& pool)
    : source_(source), pool_(&pool) {}

void FrameReader::ingest(ByteSpan a, ByteSpan b) {
  Cursor cur(stash_, a, b);
  Bytes tail;  // built before stash_ is overwritten (cur aliases stash_)
  while (true) {
    if (cur.remaining() < kFrameHeaderSize) break;  // tail is < one header
    std::uint8_t header[kFrameHeaderSize];
    cur.read(header);
    Reader r(header);
    if (r.u16() != kFrameMagic) throw SerialError("framing: bad magic");
    const std::uint32_t len = r.u32();
    if (len > kMaxFrameSize) throw SerialError("framing: oversized frame");
    if (cur.remaining() < len) {
      // Incomplete payload: carry header + everything buffered so far.
      tail.reserve(kFrameHeaderSize + cur.remaining());
      tail.insert(tail.end(), header, header + kFrameHeaderSize);
      const std::size_t n = cur.remaining();
      tail.resize(kFrameHeaderSize + n);
      cur.read(MutableByteSpan(tail.data() + kFrameHeaderSize, n));
      stash_ = std::move(tail);
      return;
    }
    Bytes payload = arena().acquire(len);
    cur.read(payload);
    ready_.push_back(std::move(payload));
    ++frames_;
  }
  // Sub-header tail (possibly empty).
  const std::size_t n = cur.remaining();
  tail.resize(n);
  if (n != 0) cur.read(MutableByteSpan(tail.data(), n));
  stash_ = std::move(tail);
}

std::optional<Bytes> FrameReader::take_ready() {
  Bytes out = std::move(ready_[ready_pos_++]);
  if (ready_pos_ == ready_.size()) {
    ready_.clear();
    ready_pos_ = 0;
  }
  return out;
}

void FrameReader::throw_torn() const {
  throw SerialError("framing: stream ended mid-frame (torn frame, " +
                    std::to_string(stash_.size()) + " byte tail)");
}

std::optional<Bytes> FrameReader::poll(bool* end) {
  *end = false;
  while (true) {
    if (ready_pos_ < ready_.size()) return take_ready();
    if (eof_) {
      if (!stash_.empty()) throw_torn();
      *end = true;
      return std::nullopt;
    }
    bool src_end = false;
    const std::size_t n = source_.poll_read_borrow(
        0,
        [this](ByteSpan a, ByteSpan b) -> std::size_t {
          ingest(a, b);
          return a.size() + b.size();
        },
        &src_end);
    if (n == 0) {
      if (!src_end) return std::nullopt;  // would-block: watcher armed
      eof_ = true;
      continue;
    }
    ++refills_;
  }
}

}  // namespace rapidware::util
