// Length-prefixed message framing over byte streams.
//
// Detachable streams carry raw bytes (like their Java counterparts); packet
// oriented filters — FEC above all — need message boundaries so that filters
// can be inserted "at a frame boundary in the stream" (paper, Section 3).
// A frame is: magic (u16) | length (u32) | payload bytes.
//
// Every write into a chain stream is whole frames in one all-or-nothing
// transaction (try_write_frame, and the null hop's chunk of frames), so a
// read of everything buffered always ends on a frame boundary; one that
// does not has met a torn stream.
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

/// The payload length a frame header announces. Throws SerialError on a
/// bad magic or a length above kMaxFrameSize.
std::uint32_t decode_frame_header(
    const std::uint8_t (&header)[kFrameHeaderSize]);

/// Throws the SerialError of a read that ended `tail` bytes into a frame.
[[noreturn]] void throw_torn_frame(std::size_t tail);

/// Copies out.size() bytes from offset `pos` of `a` followed by `b` (a
/// ring's two borrow spans, so the bytes may straddle the wrap point). The
/// caller guarantees the bytes are there.
void copy_spans(ByteSpan a, ByteSpan b, std::size_t pos,
                MutableByteSpan out) noexcept;

/// Bytes of the whole frames at the front of `a` followed by `b` (a ring's
/// two borrow spans): all of them, or as many as fit in `limit` bytes, but
/// always at least the first. Throws SerialError on a bad header, and on
/// bytes that end mid-frame before the limit is reached (a torn stream).
std::size_t whole_frames(ByteSpan a, ByteSpan b, std::size_t limit);

}  // namespace rapidware::util
