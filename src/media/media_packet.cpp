#include "media/media_packet.h"

namespace rapidware::media {

util::Bytes MediaPacket::serialize() const {
  util::Writer w(kHeaderSize + payload.size());
  w.u32(seq);
  w.i64(timestamp_us);
  w.u8(static_cast<std::uint8_t>(frame_class));
  w.raw(payload);
  return w.take();
}

namespace {
// The class byte ends the header: u32 seq · i64 timestamp_us · u8 class.
constexpr std::size_t kClassOffset = MediaPacket::kHeaderSize - 1;

bool known_class(std::uint8_t cls) {
  return cls <= static_cast<std::uint8_t>(fec::FrameClass::kOther);
}
}  // namespace

MediaPacket MediaPacket::parse(util::ByteSpan wire) {
  util::Reader r(wire);
  MediaPacket p;
  p.seq = r.u32();
  p.timestamp_us = r.i64();
  const std::uint8_t cls = r.u8();
  if (!known_class(cls)) {
    throw util::SerialError("MediaPacket: unknown frame class");
  }
  p.frame_class = static_cast<fec::FrameClass>(cls);
  p.payload = r.raw(r.remaining());
  return p;
}

std::optional<fec::FrameClass> MediaPacket::peek_frame_class(
    util::ByteSpan wire) noexcept {
  if (wire.size() < kHeaderSize || !known_class(wire[kClassOffset])) {
    return std::nullopt;
  }
  return static_cast<fec::FrameClass>(wire[kClassOffset]);
}

}  // namespace rapidware::media
