#include "util/framing.h"

#include <array>

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

}  // namespace rapidware::util
