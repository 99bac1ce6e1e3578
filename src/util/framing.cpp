#include "util/framing.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

namespace rapidware::util {

bool try_write_frame(ByteSink& sink, ByteSpan payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t header[kFrameHeaderSize] = {
      static_cast<std::uint8_t>(kFrameMagic & 0xff),
      static_cast<std::uint8_t>(kFrameMagic >> 8),
      static_cast<std::uint8_t>(len & 0xff),
      static_cast<std::uint8_t>((len >> 8) & 0xff),
      static_cast<std::uint8_t>((len >> 16) & 0xff),
      static_cast<std::uint8_t>((len >> 24) & 0xff)};
  const std::array<ByteSpan, 2> segments = {ByteSpan(header), payload};
  return sink.try_write_vec(segments);
}

std::uint32_t decode_frame_header(
    const std::uint8_t (&header)[kFrameHeaderSize]) {
  Reader r(header);
  if (r.u16() != kFrameMagic) throw SerialError("framing: bad magic");
  const std::uint32_t len = r.u32();
  if (len > kMaxFrameSize) throw SerialError("framing: oversized frame");
  return len;
}

void throw_torn_frame(std::size_t tail) {
  throw SerialError("framing: read ended mid-frame (torn frame, " +
                    std::to_string(tail) + " byte tail)");
}

void copy_spans(ByteSpan a, ByteSpan b, std::size_t pos,
                MutableByteSpan out) noexcept {
  const std::size_t from_a =
      pos < a.size() ? std::min(out.size(), a.size() - pos) : 0;
  if (from_a != 0) std::memcpy(out.data(), a.data() + pos, from_a);
  if (from_a < out.size()) {
    std::memcpy(out.data() + from_a, b.data() + (pos + from_a - a.size()),
                out.size() - from_a);
  }
}

std::size_t whole_frames(ByteSpan a, ByteSpan b, std::size_t limit) {
  const std::size_t total = a.size() + b.size();
  std::size_t pos = 0;
  while (pos < total && pos < limit) {
    const std::size_t left = total - pos;
    if (left < kFrameHeaderSize) throw_torn_frame(left);
    std::uint8_t header[kFrameHeaderSize];
    copy_spans(a, b, pos, header);
    const std::size_t frame = kFrameHeaderSize + decode_frame_header(header);
    if (pos != 0 && pos + frame > limit) break;
    if (left < frame) throw_torn_frame(left);
    pos += frame;
  }
  return pos;
}

}  // namespace rapidware::util
