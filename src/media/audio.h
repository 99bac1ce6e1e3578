// Synthetic PCM audio in the paper's recording format: 8000 samples per
// second, two 8-bit channels (Section 5). The generator synthesizes a
// deterministic voice-like signal (fundamental + harmonics + noise) so the
// FEC pipeline carries realistic, non-constant payloads.
#pragma once

#include <cstdint>

#include "media/media_packet.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rapidware::media {

struct AudioFormat {
  std::uint32_t sample_rate = 8000;
  std::uint16_t channels = 2;
  std::uint16_t bits_per_sample = 8;  // unsigned 8-bit PCM, or signed 16-bit

  std::size_t bytes_per_frame() const {
    return static_cast<std::size_t>(channels) * (bits_per_sample / 8);
  }
  std::size_t bytes_per_second() const {
    return sample_rate * bytes_per_frame();
  }

  bool operator==(const AudioFormat&) const = default;
};

/// The paper's capture format: 8 kHz, stereo, 8-bit.
inline AudioFormat paper_audio_format() { return {}; }

/// Deterministic PCM generator.
class AudioSource {
 public:
  explicit AudioSource(AudioFormat format = paper_audio_format(),
                       std::uint64_t seed = 7);

  const AudioFormat& format() const noexcept { return format_; }

  /// Produces `frames` sample frames of PCM (interleaved channels).
  util::Bytes read_frames(std::size_t frames);

  /// Total media time generated so far, in microseconds.
  std::int64_t media_time_us() const;

 private:
  AudioFormat format_;
  util::Rng rng_;
  std::uint64_t frame_index_ = 0;
  double phase1_ = 0.0, phase2_ = 0.0;
};

/// Chops an AudioSource into MediaPackets of `packet_ms` milliseconds — the
/// unit the FEC proxy groups and the receiver counts (Figure 7's x-axis is
/// this sequence number).
class AudioPacketizer {
 public:
  AudioPacketizer(AudioSource& source, std::size_t packet_ms = 20);

  MediaPacket next();

  std::size_t frames_per_packet() const noexcept { return frames_per_packet_; }
  std::size_t payload_bytes() const {
    return frames_per_packet_ * source_.format().bytes_per_frame();
  }
  /// Media duration of one packet, in microseconds.
  std::int64_t packet_duration_us() const;

 private:
  AudioSource& source_;
  std::size_t packet_ms_;
  std::size_t frames_per_packet_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace rapidware::media
