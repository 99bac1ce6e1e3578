// Length-prefixed message framing over byte streams.
//
// Detachable streams carry raw bytes (like their Java counterparts); packet
// oriented filters — FEC above all — need message boundaries so that filters
// can be inserted "at a frame boundary in the stream" (paper, Section 3).
// A frame is: magic (u16) | length (u32) | payload bytes.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/io.h"
#include "util/serial.h"

namespace rapidware::util {

/// Magic marker at the start of every frame; catches desynchronization bugs
/// (reading mid-frame after an incorrect splice) immediately.
inline constexpr std::uint16_t kFrameMagic = 0x5257;  // "RW"

/// Frames larger than this are rejected as corrupt.
inline constexpr std::uint32_t kMaxFrameSize = 16 * 1024 * 1024;

/// Bytes of header preceding every payload: magic (u16) + length (u32).
inline constexpr std::size_t kFrameHeaderSize = 6;

/// Writes one framed message: header and payload land whole, as two
/// segments of one try_write_vec transaction (no assembly copy), or not at
/// all. A false return means the sink had no room or was mid-splice; the
/// sink's writable watcher is armed, so retry from the readiness callback.
/// A frame larger than util::kMaxFrameSize is a StreamError from a
/// detachable stream. Frames are read back with util::FrameReader.
bool try_write_frame(ByteSink& sink, ByteSpan payload);

}  // namespace rapidware::util
