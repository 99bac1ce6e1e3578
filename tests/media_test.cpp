// Tests for the media substrate: packet format, audio/video sources,
// packetization, WAV round-trips, codecs, and receiver accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "media/audio.h"
#include "media/codecs.h"
#include "media/media_packet.h"
#include "media/playout.h"
#include "media/receiver_log.h"
#include "media/video.h"
#include "media/wav.h"

namespace rapidware::media {
namespace {

using util::Bytes;

// ---------------------------------------------------------------------------
// MediaPacket

TEST(MediaPacket, SerializationRoundTrips) {
  MediaPacket p;
  p.seq = 1234;
  p.timestamp_us = 987654321;
  p.frame_class = fec::FrameClass::kKey;
  p.payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(MediaPacket::parse(p.serialize()), p);
}

TEST(MediaPacket, EmptyPayloadAllowed) {
  MediaPacket p;
  EXPECT_EQ(MediaPacket::parse(p.serialize()), p);
}

TEST(MediaPacket, BadFrameClassThrows) {
  MediaPacket p;
  Bytes wire = p.serialize();
  wire[12] = 0x7f;  // frame class byte
  EXPECT_THROW(MediaPacket::parse(wire), util::SerialError);
}

TEST(MediaPacket, TruncatedHeaderThrows) {
  EXPECT_THROW(MediaPacket::parse(Bytes{1, 2, 3}), util::SerialError);
}

TEST(MediaPacket, PeekFrameClassAcceptsExactlyWhatParseAccepts) {
  MediaPacket p;
  p.seq = 9;
  p.payload = {4, 5, 6};
  const Bytes full = p.serialize();
  for (std::size_t len = 0; len <= full.size(); ++len) {
    for (int cls = 0; cls < 256; ++cls) {
      Bytes wire(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
      if (len >= MediaPacket::kHeaderSize) {
        wire[MediaPacket::kHeaderSize - 1] = static_cast<std::uint8_t>(cls);
      }
      const auto peeked = MediaPacket::peek_frame_class(wire);
      try {
        const MediaPacket parsed = MediaPacket::parse(wire);
        ASSERT_TRUE(peeked.has_value()) << "len " << len << " class " << cls;
        EXPECT_EQ(*peeked, parsed.frame_class);
      } catch (const util::SerialError&) {
        EXPECT_FALSE(peeked.has_value()) << "len " << len << " class " << cls;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AudioSource

TEST(AudioSource, PaperFormatRates) {
  const AudioFormat f = paper_audio_format();
  EXPECT_EQ(f.sample_rate, 8000u);
  EXPECT_EQ(f.channels, 2);
  EXPECT_EQ(f.bits_per_sample, 8);
  EXPECT_EQ(f.bytes_per_frame(), 2u);
  EXPECT_EQ(f.bytes_per_second(), 16'000u);
}

TEST(AudioSource, ProducesRequestedBytes) {
  AudioSource src;
  EXPECT_EQ(src.read_frames(160).size(), 320u);  // 20 ms stereo 8-bit
}

TEST(AudioSource, MediaTimeAdvances) {
  AudioSource src;
  src.read_frames(8000);  // one second
  EXPECT_EQ(src.media_time_us(), 1'000'000);
}

TEST(AudioSource, DeterministicForSeed) {
  AudioSource a(paper_audio_format(), 5);
  AudioSource b(paper_audio_format(), 5);
  EXPECT_EQ(a.read_frames(500), b.read_frames(500));
}

TEST(AudioSource, SignalHasAudioCharacter) {
  // Not constant, not white noise: the mean is near mid-scale and values
  // span a reasonable dynamic range.
  AudioSource src;
  const Bytes pcm = src.read_frames(8000);
  double sum = 0;
  std::uint8_t lo = 255, hi = 0;
  for (auto b : pcm) {
    sum += b;
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  EXPECT_NEAR(sum / static_cast<double>(pcm.size()), 127.5, 4.0);
  EXPECT_LT(lo, 70);
  EXPECT_GT(hi, 185);
}

TEST(AudioSource, SixteenBitFormat) {
  AudioFormat f;
  f.bits_per_sample = 16;
  AudioSource src(f);
  EXPECT_EQ(src.read_frames(100).size(), 400u);  // 2 ch x 2 bytes
}

TEST(AudioSource, RejectsBadFormats) {
  AudioFormat f;
  f.bits_per_sample = 12;
  EXPECT_THROW(AudioSource{f}, std::invalid_argument);
  AudioFormat g;
  g.channels = 0;
  EXPECT_THROW(AudioSource{g}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// AudioPacketizer

TEST(AudioPacketizer, PaperPacketGeometry) {
  AudioSource src;
  AudioPacketizer packetizer(src, 20);
  EXPECT_EQ(packetizer.frames_per_packet(), 160u);
  EXPECT_EQ(packetizer.payload_bytes(), 320u);
  EXPECT_EQ(packetizer.packet_duration_us(), 20'000);
}

TEST(AudioPacketizer, SequentialSeqAndTimestamps) {
  AudioSource src;
  AudioPacketizer packetizer(src, 20);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const MediaPacket p = packetizer.next();
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.timestamp_us, static_cast<std::int64_t>(i) * 20'000);
    EXPECT_EQ(p.frame_class, fec::FrameClass::kAudio);
    EXPECT_EQ(p.payload.size(), 320u);
  }
}

TEST(AudioPacketizer, TooShortPacketThrows) {
  AudioFormat f;
  f.sample_rate = 10;
  AudioSource src(f);
  EXPECT_THROW(AudioPacketizer(src, 20), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// VideoStreamSource

TEST(VideoSource, FollowsGopPattern) {
  VideoStreamSource src;
  const std::string pattern = src.format().gop_pattern;  // IBBPBBPBB
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (char kind : pattern) {
      const MediaPacket p = src.next_frame();
      const fec::FrameClass expected =
          kind == 'I' ? fec::FrameClass::kKey
          : kind == 'P' ? fec::FrameClass::kPredicted
                        : fec::FrameClass::kBidirectional;
      EXPECT_EQ(p.frame_class, expected);
    }
  }
}

TEST(VideoSource, FrameSizesOrdered) {
  VideoStreamSource src;
  double i_avg = 0, p_avg = 0, b_avg = 0;
  int i_n = 0, p_n = 0, b_n = 0;
  for (int f = 0; f < 900; ++f) {
    const MediaPacket p = src.next_frame();
    switch (p.frame_class) {
      case fec::FrameClass::kKey: i_avg += p.payload.size(); ++i_n; break;
      case fec::FrameClass::kPredicted: p_avg += p.payload.size(); ++p_n; break;
      default: b_avg += p.payload.size(); ++b_n; break;
    }
  }
  EXPECT_GT(i_avg / i_n, p_avg / p_n);
  EXPECT_GT(p_avg / p_n, b_avg / b_n);
}

TEST(VideoSource, TimestampsMatchFrameRate) {
  VideoStreamSource src;
  const MediaPacket a = src.next_frame();
  const MediaPacket b = src.next_frame();
  EXPECT_EQ(b.timestamp_us - a.timestamp_us, src.frame_duration_us());
  EXPECT_EQ(src.frame_duration_us(), 40'000);  // 25 fps
}

TEST(VideoSource, RejectsBadPatterns) {
  VideoFormat f;
  f.gop_pattern = "IXB";
  EXPECT_THROW(VideoStreamSource{f}, std::invalid_argument);
  VideoFormat g;
  g.gop_pattern = "";
  EXPECT_THROW(VideoStreamSource{g}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WAV

TEST(Wav, RoundTripsPaperFormat) {
  AudioSource src;
  WavFile wav{paper_audio_format(), src.read_frames(800)};
  const Bytes encoded = wav_encode(wav);
  EXPECT_EQ(encoded.size(), 44u + wav.pcm.size());
  EXPECT_EQ(wav_decode(encoded), wav);
}

TEST(Wav, RoundTrips16Bit) {
  AudioFormat f;
  f.bits_per_sample = 16;
  f.channels = 1;
  f.sample_rate = 44'100;
  AudioSource src(f);
  WavFile wav{f, src.read_frames(100)};
  EXPECT_EQ(wav_decode(wav_encode(wav)), wav);
}

TEST(Wav, RejectsGarbage) {
  EXPECT_THROW(wav_decode(util::to_bytes("not a wav file at all....")),
               util::SerialError);
}

TEST(Wav, RejectsTruncatedData) {
  AudioSource src;
  WavFile wav{paper_audio_format(), src.read_frames(100)};
  Bytes encoded = wav_encode(wav);
  encoded.resize(encoded.size() - 10);
  EXPECT_THROW(wav_decode(encoded), util::SerialError);
}

// ---------------------------------------------------------------------------
// Codecs

TEST(Codecs, ToMonoAverages) {
  AudioFormat f;  // 8-bit stereo
  const Bytes stereo{100, 200, 50, 150};
  const Bytes mono = to_mono(stereo, f);
  ASSERT_EQ(mono.size(), 2u);
  EXPECT_EQ(mono[0], 150);
  EXPECT_EQ(mono[1], 100);
}

TEST(Codecs, ToMonoHalvesBandwidth) {
  AudioSource src;
  const Bytes pcm = src.read_frames(400);
  EXPECT_EQ(to_mono(pcm, src.format()).size(), pcm.size() / 2);
}

TEST(Codecs, DownsampleHalvesFrames) {
  AudioSource src;
  const Bytes pcm = src.read_frames(400);
  EXPECT_EQ(downsample_half(pcm, src.format()).size(), pcm.size() / 2);
}

TEST(Codecs, MisalignedPcmThrows) {
  AudioFormat f;  // stereo 8-bit: frame = 2 bytes
  EXPECT_THROW(to_mono(Bytes{1, 2, 3}, f), std::invalid_argument);
  EXPECT_THROW(downsample_half(Bytes{1}, f), std::invalid_argument);
}

TEST(Codecs, MulawRoundTripAccuracy) {
  // mu-law is lossy; error must stay within the segment quantization step
  // (~2% of full scale for large samples, tiny for small ones).
  for (std::int32_t s = -32'000; s <= 32'000; s += 97) {
    const auto sample = static_cast<std::int16_t>(s);
    const std::int16_t rt = mulaw_decode_sample(mulaw_encode_sample(sample));
    EXPECT_NEAR(rt, sample, std::max(16.0, std::abs(s) * 0.04)) << "s=" << s;
  }
}

TEST(Codecs, MulawCompressesTwoToOne) {
  AudioFormat f;
  f.bits_per_sample = 16;
  AudioSource src(f);
  const Bytes pcm = src.read_frames(256);
  const Bytes encoded = mulaw_encode(pcm);
  EXPECT_EQ(encoded.size(), pcm.size() / 2);
  EXPECT_EQ(mulaw_decode(encoded).size(), pcm.size());
}

TEST(Codecs, MulawOddInputThrows) {
  EXPECT_THROW(mulaw_encode(Bytes{1}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ReceiverLog

MediaPacket packet_with_seq(std::uint32_t seq) {
  MediaPacket p;
  p.seq = seq;
  p.timestamp_us = static_cast<std::int64_t>(seq) * 20'000;
  return p;
}

TEST(ReceiverLog, CountsDeliveryRate) {
  ReceiverLog log(100);
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (i % 10 == 0) continue;  // drop 10%
    log.on_packet(packet_with_seq(i), i * 20'000);
  }
  EXPECT_EQ(log.delivered(), 90u);
  EXPECT_EQ(log.expected(), 100u);
  EXPECT_DOUBLE_EQ(log.delivery_rate(), 0.9);
}

TEST(ReceiverLog, DuplicatesDoNotInflate) {
  ReceiverLog log;
  log.on_packet(packet_with_seq(0), 0);
  log.on_packet(packet_with_seq(0), 10);
  EXPECT_EQ(log.delivered(), 1u);
  EXPECT_EQ(log.duplicates(), 1u);
}

TEST(ReceiverLog, TracksOutOfOrder) {
  ReceiverLog log;
  log.on_packet(packet_with_seq(3), 0);
  log.on_packet(packet_with_seq(1), 10);
  EXPECT_EQ(log.out_of_order(), 1u);
}

TEST(ReceiverLog, BinsMatchFigure7Shape) {
  ReceiverLog log(432);
  // 5 bins' worth with losses only in the middle bin.
  for (std::uint32_t i = 0; i < 432 * 5; ++i) {
    const bool middle = i >= 432 * 2 && i < 432 * 3;
    if (middle && i % 4 == 0) continue;  // 25% loss in bin 2
    log.on_packet(packet_with_seq(i), i * 20'000);
  }
  const auto bins = log.bins();
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_DOUBLE_EQ(bins[0].rate, 1.0);
  EXPECT_NEAR(bins[2].rate, 0.75, 0.01);
  EXPECT_DOUBLE_EQ(bins[4].rate, 1.0);
  EXPECT_EQ(bins[1].first_seq, 432u);
}

TEST(ReceiverLog, PartialFinalBin) {
  ReceiverLog log(100);
  for (std::uint32_t i = 0; i < 150; ++i) {
    log.on_packet(packet_with_seq(i), i);
  }
  const auto bins = log.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[1].expected, 50u);
}

TEST(ReceiverLog, JitterZeroForPerfectTiming) {
  ReceiverLog log;
  for (std::uint32_t i = 0; i < 100; ++i) {
    // Arrival spacing exactly matches media spacing.
    log.on_packet(packet_with_seq(i), 1'000'000 + i * 20'000);
  }
  EXPECT_DOUBLE_EQ(log.smoothed_jitter_us(), 0.0);
}

TEST(ReceiverLog, JitterGrowsWithVariance) {
  ReceiverLog steady, jittery;
  util::Rng rng(3);
  for (std::uint32_t i = 0; i < 500; ++i) {
    steady.on_packet(packet_with_seq(i), i * 20'000);
    jittery.on_packet(packet_with_seq(i),
                      i * 20'000 + static_cast<util::Micros>(rng.next_below(8'000)));
  }
  EXPECT_GT(jittery.smoothed_jitter_us(), steady.smoothed_jitter_us());
  EXPECT_GT(jittery.jitter_stats().mean(), 1000.0);
}

TEST(ReceiverLog, ZeroBinSizeThrows) {
  EXPECT_THROW(ReceiverLog(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PlayoutBuffer

TEST(PlayoutBuffer, RejectsBadConfig) {
  EXPECT_THROW(PlayoutBuffer(0, 100), std::invalid_argument);
  EXPECT_THROW(PlayoutBuffer(20'000, -1), std::invalid_argument);
}

TEST(PlayoutBuffer, OnTimeWhenArrivalsMatchCadence) {
  PlayoutBuffer buffer(20'000, 40'000);
  for (std::uint32_t seq = 0; seq < 100; ++seq) {
    buffer.on_available(seq, 1'000'000 + seq * 20'000);
  }
  const auto r = buffer.report(99);
  EXPECT_EQ(r.on_time, 100u);
  EXPECT_EQ(r.late, 0u);
  EXPECT_EQ(r.missing, 0u);
  EXPECT_DOUBLE_EQ(r.on_time_rate, 1.0);
  EXPECT_EQ(r.p99_extra_delay_us, 0);
}

TEST(PlayoutBuffer, JitterBeyondDelayIsLate) {
  PlayoutBuffer buffer(20'000, 30'000);
  buffer.on_available(0, 0);       // anchor: deadline(seq) = 30ms + seq*20ms
  buffer.on_available(1, 55'000);  // deadline 50 ms -> 5 ms late
  buffer.on_available(2, 69'000);  // deadline 70 ms -> on time
  const auto r = buffer.report(2);
  EXPECT_EQ(r.on_time, 2u);
  EXPECT_EQ(r.late, 1u);
  EXPECT_GE(r.p99_extra_delay_us, 5'000);
}

TEST(PlayoutBuffer, MissingPacketsCounted) {
  PlayoutBuffer buffer(20'000, 40'000);
  buffer.on_available(0, 0);
  buffer.on_available(2, 40'000);
  const auto r = buffer.report(3);
  EXPECT_EQ(r.on_time, 2u);
  EXPECT_EQ(r.missing, 2u);  // seq 1 and 3
  EXPECT_DOUBLE_EQ(r.on_time_rate, 0.5);
}

TEST(PlayoutBuffer, DuplicateKeepsEarliestAvailability) {
  PlayoutBuffer buffer(20'000, 10'000);
  buffer.on_available(0, 0);
  buffer.on_available(1, 25'000);   // on time (deadline 30 ms)
  buffer.on_available(1, 99'000);   // late duplicate must not regress it
  EXPECT_EQ(buffer.report(1).on_time, 2u);
}

TEST(PlayoutBuffer, AnchorAccountsForMidStreamJoin) {
  // First packet seen is seq 10: the anchor back-dates t0 so deadlines for
  // later packets stay on the original cadence.
  PlayoutBuffer buffer(20'000, 40'000);
  buffer.on_available(10, 1'000'000);
  EXPECT_EQ(buffer.deadline(10), 1'040'000);
  EXPECT_EQ(buffer.deadline(11), 1'060'000);
}

TEST(PlayoutBuffer, LargerDelayConvertsLateToOnTime) {
  // The defining trade-off: the same arrival pattern under a longer delay.
  const auto run = [](util::Micros delay) {
    PlayoutBuffer buffer(20'000, delay);
    util::Rng rng(4);
    for (std::uint32_t seq = 0; seq < 500; ++seq) {
      const util::Micros jitter =
          static_cast<util::Micros>(rng.next_below(60'000));
      buffer.on_available(seq, seq * 20'000 + jitter);
    }
    return buffer.report(499).on_time_rate;
  };
  EXPECT_LT(run(10'000), run(30'000));
  EXPECT_LT(run(30'000), run(70'000));
  EXPECT_GT(run(70'000), 0.99);
}

}  // namespace
}  // namespace rapidware::media
