#include "util/frame_reader.h"

#include <utility>

#include "util/buffer_pool.h"
#include "util/framing.h"

namespace rapidware::util {

FrameReader::FrameReader(ByteSource& source) : source_(source) {}

void FrameReader::ingest(ByteSpan a, ByteSpan b) {
  BufferPool& arena = BufferPool::local();
  const std::size_t total = a.size() + b.size();
  for (std::size_t pos = 0; pos < total;) {
    // Header bytes go to a stack buffer and payload bytes straight to their
    // final pooled buffer, so each byte is copied exactly once.
    const std::size_t left = total - pos;
    if (left < kFrameHeaderSize) throw_torn_frame(left);
    std::uint8_t header[kFrameHeaderSize];
    copy_spans(a, b, pos, header);
    const std::uint32_t len = decode_frame_header(header);
    if (left - kFrameHeaderSize < len) throw_torn_frame(left);
    Bytes payload = arena.acquire(len);
    copy_spans(a, b, pos + kFrameHeaderSize, payload);
    ready_.push_back(std::move(payload));
    ++frames_;
    pos += kFrameHeaderSize + len;
  }
}

std::optional<Bytes> FrameReader::poll(bool* end) {
  *end = false;
  if (ready_pos_ == ready_.size()) {
    ready_.clear();
    ready_pos_ = 0;
    if (eof_) {
      *end = true;
      return std::nullopt;
    }
    // A refill takes everything buffered; it ends on a frame boundary, so
    // it decodes at least one frame.
    const std::size_t n = source_.poll_read_borrow(
        0,
        [this](ByteSpan a, ByteSpan b) -> std::size_t {
          ingest(a, b);
          return a.size() + b.size();
        },
        &eof_);
    if (n == 0) {
      *end = eof_;  // or would-block: the watcher is armed
      return std::nullopt;
    }
    ++refills_;
  }
  return std::move(ready_[ready_pos_++]);
}

}  // namespace rapidware::util
