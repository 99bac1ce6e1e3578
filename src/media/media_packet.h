// Media packet format flowing through proxies: an RTP-like header (sequence
// number, media timestamp, frame class) plus an opaque payload. The
// sequence number is what Figure 7 plots receipt rates against; the frame
// class is what the UEP FEC filter keys protection on.
#pragma once

#include <cstdint>
#include <optional>

#include "fec/uep.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace rapidware::media {

struct MediaPacket {
  std::uint32_t seq = 0;
  std::int64_t timestamp_us = 0;  // media time of the first sample/frame
  fec::FrameClass frame_class = fec::FrameClass::kAudio;
  util::Bytes payload;

  static constexpr std::size_t kHeaderSize = 4 + 8 + 1;

  util::Bytes serialize() const;
  static MediaPacket parse(util::ByteSpan wire);

  /// The frame class of a serialized packet, read in place from its header;
  /// nullopt exactly where parse() throws. What per-packet classifiers (the
  /// UEP FEC filter) use instead of parse(), which copies the payload.
  static std::optional<fec::FrameClass> peek_frame_class(
      util::ByteSpan wire) noexcept;

  bool operator==(const MediaPacket&) const = default;
};

}  // namespace rapidware::media
