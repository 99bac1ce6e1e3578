#include "media/audio.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rapidware::media {

AudioSource::AudioSource(AudioFormat format, std::uint64_t seed)
    : format_(format), rng_(seed) {
  if (format_.bits_per_sample != 8 && format_.bits_per_sample != 16) {
    throw std::invalid_argument("AudioSource: 8 or 16 bits per sample");
  }
  if (format_.channels == 0 || format_.sample_rate == 0) {
    throw std::invalid_argument("AudioSource: bad format");
  }
}

util::Bytes AudioSource::read_frames(std::size_t frames) {
  util::Bytes out;
  out.reserve(frames * format_.bytes_per_frame());
  const double dt = 1.0 / format_.sample_rate;
  for (std::size_t f = 0; f < frames; ++f) {
    // Voice-ish: ~180 Hz fundamental with vibrato, a harmonic, and noise,
    // gated by speech-like pauses (every fourth third-of-a-second silent).
    const double t = static_cast<double>(frame_index_++) * dt;
    const bool voiced = (frame_index_ * 3 / format_.sample_rate) % 4 != 3;
    const double vibrato = 1.0 + 0.02 * std::sin(2 * std::numbers::pi * 5.0 * t);
    phase1_ += 2 * std::numbers::pi * 180.0 * vibrato * dt;
    phase2_ += 2 * std::numbers::pi * 540.0 * dt;
    const double base =
        0.55 * std::sin(phase1_) + 0.25 * std::sin(phase2_);
    if (!voiced) {
      // Exact digital silence: mid-scale for unsigned 8-bit, zero for 16.
      for (std::uint16_t c = 0; c < format_.channels; ++c) {
        if (format_.bits_per_sample == 8) {
          out.push_back(127);
        } else {
          out.push_back(0);
          out.push_back(0);
        }
      }
      continue;
    }
    for (std::uint16_t c = 0; c < format_.channels; ++c) {
      // Slight inter-channel decorrelation plus dither noise.
      const double s = base * (c == 0 ? 1.0 : 0.9) +
                       0.05 * (rng_.next_double() * 2.0 - 1.0);
      if (format_.bits_per_sample == 8) {
        const double clamped = std::clamp(s, -1.0, 1.0);
        out.push_back(static_cast<std::uint8_t>(
            std::lround((clamped + 1.0) * 127.5)));
      } else {
        const double clamped = std::clamp(s, -1.0, 1.0);
        const auto v = static_cast<std::int16_t>(std::lround(clamped * 32767));
        out.push_back(static_cast<std::uint8_t>(v & 0xff));
        out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
      }
    }
  }
  return out;
}

std::int64_t AudioSource::media_time_us() const {
  return static_cast<std::int64_t>(frame_index_ * 1'000'000ULL /
                                   format_.sample_rate);
}

AudioPacketizer::AudioPacketizer(AudioSource& source, std::size_t packet_ms)
    : source_(source),
      packet_ms_(packet_ms),
      frames_per_packet_(source.format().sample_rate * packet_ms / 1000) {
  if (frames_per_packet_ == 0) {
    throw std::invalid_argument("AudioPacketizer: packet too short");
  }
}

MediaPacket AudioPacketizer::next() {
  MediaPacket p;
  p.seq = next_seq_++;
  p.timestamp_us = source_.media_time_us();
  p.frame_class = fec::FrameClass::kAudio;
  p.payload = source_.read_frames(frames_per_packet_);
  return p;
}

std::int64_t AudioPacketizer::packet_duration_us() const {
  return static_cast<std::int64_t>(packet_ms_) * 1000;
}

}  // namespace rapidware::media
