// Tests for the concrete filter library: FEC encode/decode filters (in and
// out of chains), UEP, transcoding, compression, encryption, throttling,
// stats taps, interleaving filters, caching, and the filter registry.
#include <gtest/gtest.h>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "filters/cache_filter.h"
#include "filters/compress_filter.h"
#include "filters/crypto_filter.h"
#include "filters/fec_filters.h"
#include "filters/interleave_filter.h"
#include "filters/registry.h"
#include "filters/stats_filter.h"
#include "filters/throttle_filter.h"
#include "filters/transcode_filter.h"
#include "media/audio.h"
#include "media/media_packet.h"
#include "media/video.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace rapidware::filters {
namespace {

using util::Bytes;

/// Chain harness with queue source and collecting sink.
struct Harness {
  std::shared_ptr<core::QueuePacketSource> source =
      std::make_shared<core::QueuePacketSource>();
  std::shared_ptr<core::CollectingPacketSink> sink =
      std::make_shared<core::CollectingPacketSink>();
  std::shared_ptr<core::FilterChain> chain;

  Harness() {
    chain = std::make_shared<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("in", source),
        std::make_shared<core::PacketWriterEndpoint>("out", sink));
    chain->start();
  }
  ~Harness() {
    source->finish();
    chain->shutdown();
  }
  void run_to_completion() {
    source->finish();
    chain->shutdown();
  }
};

std::vector<Bytes> media_payloads(int count, std::size_t size = 120) {
  util::Rng rng(42);
  std::vector<Bytes> out;
  for (int i = 0; i < count; ++i) {
    media::MediaPacket p;
    p.seq = static_cast<std::uint32_t>(i);
    p.timestamp_us = i * 20'000;
    p.payload.resize(size);
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u64());
    out.push_back(p.serialize());
  }
  return out;
}

// ---------------------------------------------------------------------------
// FEC filters

TEST(FecFilters, EncodeExpandsByNOverK) {
  Harness h;
  h.chain->insert(std::make_shared<FecEncodeFilter>(6, 4), 0);
  for (auto& p : media_payloads(40)) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->count(), 60u);  // 40 data + 20 parity
}

TEST(FecFilters, EncodeDecodeRoundTripLossless) {
  Harness h;
  h.chain->insert(std::make_shared<FecEncodeFilter>(6, 4), 0);
  h.chain->insert(std::make_shared<FecDecodeFilter>(), 1);
  const auto sent = media_payloads(43);  // deliberately not a multiple of 4
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(FecFilters, DecoderPassesThroughRawPackets) {
  Harness h;
  h.chain->insert(std::make_shared<FecDecodeFilter>(), 0);
  const auto sent = media_payloads(10);
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(FecFilters, MidStreamEncoderInsertionKeepsDecodableStream) {
  // Decoder runs permanently; encoder is inserted mid-stream (demand-driven
  // FEC). All packets must come out exactly once, in order.
  Harness h;
  h.chain->insert(std::make_shared<FecDecodeFilter>(), 0);
  const auto sent = media_payloads(60);
  for (int i = 0; i < 30; ++i) h.source->push(sent[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(h.sink->wait_for(30));
  h.chain->insert(std::make_shared<FecEncodeFilter>(6, 4), 0);
  for (int i = 30; i < 60; ++i) h.source->push(sent[static_cast<std::size_t>(i)]);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(FecFilters, EncoderRemovalFlushesPartialGroup) {
  Harness h;
  auto enc = std::make_shared<FecEncodeFilter>(6, 4);
  h.chain->insert(enc, 0);
  h.chain->insert(std::make_shared<FecDecodeFilter>(), 1);
  const auto sent = media_payloads(6);  // 4 full group + 2 held
  for (auto& p : sent) h.source->push(p);
  ASSERT_TRUE(h.sink->wait_for(4));
  h.chain->remove(0);  // must flush the 2 held packets as a short group
  ASSERT_TRUE(h.sink->wait_for(6));
  EXPECT_EQ(h.sink->packets(), sent);
  h.run_to_completion();
}

TEST(FecFilters, ParamChangeAppliesAtGroupBoundary) {
  Harness h;
  auto enc = std::make_shared<FecEncodeFilter>(6, 4);
  h.chain->insert(enc, 0);
  EXPECT_TRUE(enc->set_param("n", "8"));
  EXPECT_TRUE(enc->set_param("k", "2"));
  const auto sent = media_payloads(2);
  for (auto& p : sent) h.source->push(p);
  // (8-ish, 2): one group of 2 data + 6 parity.
  ASSERT_TRUE(h.sink->wait_for(8));
  h.run_to_completion();
  EXPECT_EQ(h.sink->count(), 8u);
}

TEST(FecFilters, ParamValidation) {
  FecEncodeFilter enc(6, 4);
  EXPECT_FALSE(enc.set_param("n", "0"));
  EXPECT_FALSE(enc.set_param("n", "3"));   // below k
  EXPECT_FALSE(enc.set_param("k", "7"));   // above n
  EXPECT_FALSE(enc.set_param("k", "abc"));
  EXPECT_FALSE(enc.set_param("other", "1"));
  EXPECT_TRUE(enc.set_param("k", "2"));
  EXPECT_EQ(enc.params().at("k"), "2");
  EXPECT_EQ(enc.describe(), "fec-enc(6,2)");
}

TEST(FecFilters, DecodeStatsExposed) {
  Harness h;
  auto dec = std::make_shared<FecDecodeFilter>();
  h.chain->insert(std::make_shared<FecEncodeFilter>(4, 2), 0);
  h.chain->insert(dec, 1);
  for (auto& p : media_payloads(10)) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(dec->params().at("data_received"), "10");
  EXPECT_EQ(dec->stats().data_lost, 0u);
}

TEST(FecFilters, StatsAloneShowPerHopConservation) {
  // Every hop's in and out, read from the registry alone: each stage takes
  // exactly what its upstream neighbour sent, the encoder adds one parity
  // packet per two data packets, and the decoder takes them out again.
  auto source = std::make_shared<core::QueuePacketSource>();
  auto sink = std::make_shared<core::CollectingPacketSink>();
  obs::Registry reg;
  auto chain = std::make_shared<core::FilterChain>(
      std::make_shared<core::PacketReaderEndpoint>("head", source),
      std::make_shared<core::PacketWriterEndpoint>("tail", sink));
  chain->insert(std::make_shared<FecEncodeFilter>(6, 4), 0);
  chain->insert(std::make_shared<FecDecodeFilter>(), 1);
  chain->bind_metrics(reg, "p/chain");
  chain->start();
  for (auto& p : media_payloads(40)) source->push(p);
  source->finish();
  chain->shutdown();

  const obs::Snapshot snap = reg.snapshot("p/chain");
  const auto value = [&snap](const std::string& name) -> std::string {
    for (const auto& e : snap) {
      if (e.name == name) return e.value;
    }
    return "<missing: " + name + ">";
  };
  EXPECT_EQ(value("p/chain/head/packets_in"), "40");
  EXPECT_EQ(value("p/chain/head/packets_out"), "40");
  EXPECT_EQ(value("p/chain/fec-encode/packets_in"), "40");
  EXPECT_EQ(value("p/chain/fec-encode/packets_out"), "60");
  EXPECT_EQ(value("p/chain/fec-decode/packets_in"), "60");
  EXPECT_EQ(value("p/chain/fec-decode/packets_out"), "40");
  EXPECT_EQ(value("p/chain/fec-decode/groups_decoded"), "10");
  EXPECT_EQ(value("p/chain/fec-decode/data_recovered"), "0");
  EXPECT_EQ(value("p/chain/tail/packets_in"), "40");
  EXPECT_EQ(value("p/chain/tail/packets_out"), "40");
  EXPECT_EQ(value("p/chain/tail/packets_out"), std::to_string(sink->count()));
}

// ---------------------------------------------------------------------------
// UEP

TEST(UepFilter, ProtectsKeyFramesMore) {
  Harness h;
  auto uep = std::make_shared<UepFecEncodeFilter>();
  h.chain->insert(uep, 0);

  media::MediaPacket key;
  key.frame_class = fec::FrameClass::kKey;
  key.payload = Bytes(100, 1);
  media::MediaPacket b_frame;
  b_frame.seq = 1;
  b_frame.frame_class = fec::FrameClass::kBidirectional;
  b_frame.payload = Bytes(100, 2);

  h.source->push(key.serialize());
  h.source->push(b_frame.serialize());
  h.run_to_completion();
  // Standard policy flushed as short groups: the key frame carries its
  // class's 4 parity packets, the B frame none.
  EXPECT_EQ(h.sink->count(), 1u + 4u + 1u);
  EXPECT_EQ(uep->parity_packets_emitted(), 4u);
}

TEST(UepFilter, OverheadMatchesPolicyRates) {
  // Full groups: 4 I frames -> (8,4) = 8 packets; 4 B frames -> (4,4) = 4.
  Harness h;
  auto uep = std::make_shared<UepFecEncodeFilter>();
  h.chain->insert(uep, 0);
  for (int i = 0; i < 4; ++i) {
    media::MediaPacket p;
    p.seq = static_cast<std::uint32_t>(i);
    p.frame_class = fec::FrameClass::kKey;
    p.payload = Bytes(50, 1);
    h.source->push(p.serialize());
  }
  for (int i = 0; i < 4; ++i) {
    media::MediaPacket p;
    p.seq = static_cast<std::uint32_t>(4 + i);
    p.frame_class = fec::FrameClass::kBidirectional;
    p.payload = Bytes(50, 2);
    h.source->push(p.serialize());
  }
  h.run_to_completion();
  EXPECT_EQ(h.sink->count(), 8u + 4u);  // 2x for I, 1x for B
  EXPECT_EQ(uep->parity_packets_emitted(), 4u);
}

TEST(UepFilter, UnparseablePacketsAreProtectedAtTheOtherClass) {
  // Every class but kOther gets (3, 2), so a packet read as any real class
  // would land in a 3-packet group instead of kOther's (6, 4).
  fec::UepPolicy policy = fec::UepPolicy::uniform({3, 2});
  policy.set(fec::FrameClass::kOther, {6, 4});
  Harness h;
  h.chain->insert(std::make_shared<UepFecEncodeFilter>(policy), 0);

  media::MediaPacket key;
  key.frame_class = fec::FrameClass::kKey;
  key.payload = Bytes(40, 1);
  Bytes bad_class = key.serialize();
  bad_class[media::MediaPacket::kHeaderSize - 1] =
      static_cast<std::uint8_t>(fec::FrameClass::kOther) + 1;
  Bytes no_class = key.serialize();
  no_class[media::MediaPacket::kHeaderSize - 1] = 0xff;
  const std::vector<Bytes> other = {
      Bytes(media::MediaPacket::kHeaderSize - 1, 7),  // header cut short
      bad_class, Bytes(1, 9), no_class};
  for (const auto& p : other) h.source->push(p);
  h.run_to_completion();

  // One full (6, 4) group: the four packets, verbatim, plus two parity.
  const auto wire = h.sink->packets();
  ASSERT_EQ(wire.size(), 6u);
  std::vector<Bytes> data;
  for (const auto& w : wire) {
    util::Reader r(w);
    const fec::GroupHeader hdr = fec::GroupHeader::decode_from(r);
    EXPECT_EQ(hdr.n, 6);
    EXPECT_EQ(hdr.k, 4);
    if (!hdr.is_parity()) data.push_back(r.raw(r.remaining()));
  }
  EXPECT_EQ(data, other);
}

TEST(UepFilter, StreamDecodableByStandardDecoder) {
  Harness h;
  h.chain->insert(std::make_shared<UepFecEncodeFilter>(), 0);
  h.chain->insert(std::make_shared<FecDecodeFilter>(), 1);

  media::VideoStreamSource video;
  std::vector<Bytes> sent;
  for (int i = 0; i < 27; ++i) sent.push_back(video.next_frame().serialize());
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  // Classes are grouped separately, so delivery order may interleave;
  // every frame must arrive exactly once (compare seq-sorted).
  auto by_seq = [](const Bytes& a, const Bytes& b) {
    return media::MediaPacket::parse(a).seq < media::MediaPacket::parse(b).seq;
  };
  auto got = h.sink->packets();
  std::sort(got.begin(), got.end(), by_seq);
  EXPECT_EQ(got, sent);
}

// ---------------------------------------------------------------------------
// Transcode

TEST(TranscodeFilter, MonoHalvesStereoPayload) {
  Harness h;
  h.chain->insert(std::make_shared<AudioTranscodeFilter>(
                      media::paper_audio_format(), TranscodeMode::kMono),
                  0);
  media::AudioSource src;
  media::AudioPacketizer packetizer(src);
  const media::MediaPacket p = packetizer.next();
  h.source->push(p.serialize());
  ASSERT_TRUE(h.sink->wait_for(1));
  const auto out = media::MediaPacket::parse(h.sink->packets()[0]);
  EXPECT_EQ(out.payload.size(), p.payload.size() / 2);
  EXPECT_EQ(out.seq, p.seq);  // header preserved
  h.run_to_completion();
}

TEST(TranscodeFilter, MonoHalfQuartersPayload) {
  Harness h;
  auto f = std::make_shared<AudioTranscodeFilter>(media::paper_audio_format(),
                                                  TranscodeMode::kMonoHalf);
  h.chain->insert(f, 0);
  EXPECT_DOUBLE_EQ(f->reduction_factor(), 4.0);
  media::AudioSource src;
  media::AudioPacketizer packetizer(src);
  h.source->push(packetizer.next().serialize());
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(media::MediaPacket::parse(h.sink->packets()[0]).payload.size(),
            80u);
  h.run_to_completion();
}

TEST(TranscodeFilter, ModeSwitchAtRuntime) {
  AudioTranscodeFilter f(media::paper_audio_format());
  EXPECT_TRUE(f.set_param("mode", "half"));
  EXPECT_EQ(f.describe(), "transcode(half-rate)");
  EXPECT_FALSE(f.set_param("mode", "nonsense"));
  EXPECT_FALSE(f.set_param("rate", "4000"));
}

// ---------------------------------------------------------------------------
// Compression

TEST(Compression, RoundTripsArbitraryData) {
  util::Rng rng(1);
  for (const std::size_t len : {0u, 1u, 2u, 100u, 4096u}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(rle_decompress(rle_compress(data)), data) << "len " << len;
  }
}

TEST(Compression, CompressesRuns) {
  const Bytes runs(1000, 7);
  const Bytes compressed = rle_compress(runs);
  EXPECT_LT(compressed.size(), 50u);
  EXPECT_EQ(rle_decompress(compressed), runs);
}

TEST(Compression, CompressesSmoothAudio) {
  // A slow ramp has tiny deltas -> long runs after delta precoding.
  Bytes ramp(1000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i / 8);
  }
  EXPECT_LT(rle_compress(ramp).size(), ramp.size() / 2);
}

TEST(Compression, NeverExpandsBeyondOneByte) {
  util::Rng rng(2);
  Bytes noise(777);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_LE(rle_compress(noise).size(), noise.size() + 1);
}

TEST(Compression, RejectsCorruptInput) {
  EXPECT_THROW(rle_decompress({}), std::invalid_argument);
  EXPECT_THROW(rle_decompress(Bytes{9, 1, 2}), std::invalid_argument);
  EXPECT_THROW(rle_decompress(Bytes{1, 0, 5}), std::invalid_argument);  // run 0
}

TEST(Compression, FilterPairRoundTripsInChain) {
  Harness h;
  auto comp = std::make_shared<CompressFilter>();
  h.chain->insert(comp, 0);
  h.chain->insert(std::make_shared<DecompressFilter>(), 1);
  media::AudioSource src;
  media::AudioPacketizer packetizer(src);
  std::vector<Bytes> sent;
  // 1.6 s of audio: includes the source's speech pauses, which compress.
  for (int i = 0; i < 80; ++i) sent.push_back(packetizer.next().serialize());
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
  EXPECT_LT(comp->ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Encryption

TEST(Crypto, ChaChaKnownAnswerRfc8439) {
  // RFC 8439 section 2.4.2 test vector.
  ChaChaKey key;
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data(plaintext.begin(), plaintext.end());
  chacha20_xor(key, nonce, 1, data);
  EXPECT_EQ(util::to_hex(util::ByteSpan(data.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(Crypto, EncryptDecryptRoundTripsInChain) {
  Harness h;
  const ChaChaKey key = derive_key("test-passphrase");
  h.chain->insert(std::make_shared<EncryptFilter>(key), 0);
  h.chain->insert(std::make_shared<DecryptFilter>(key), 1);
  const auto sent = media_payloads(30);
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
}

TEST(Crypto, CiphertextDiffersFromPlaintextAndVaries) {
  Harness h;
  h.chain->insert(std::make_shared<EncryptFilter>(derive_key("k")), 0);
  const Bytes plain(64, 0xAA);
  h.source->push(plain);
  h.source->push(plain);
  h.run_to_completion();
  const auto out = h.sink->packets();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(Bytes(out[0].begin() + 8, out[0].end()), plain);
  // Same plaintext, different packet index -> different ciphertext.
  EXPECT_NE(out[0], out[1]);
}

TEST(Crypto, WrongKeyProducesGarbage) {
  const ChaChaKey k1 = derive_key("right");
  const ChaChaKey k2 = derive_key("wrong");
  EXPECT_NE(k1, k2);
  Bytes data = util::to_bytes("some secret payload");
  const Bytes original = data;
  ChaChaNonce nonce{};
  chacha20_xor(k1, nonce, 0, data);
  chacha20_xor(k2, nonce, 0, data);
  EXPECT_NE(data, original);
}

// ---------------------------------------------------------------------------
// Throttle

TEST(Throttle, LimitsThroughput) {
  Harness h;
  // 50 KB/s with a tiny bucket; 20 packets x 1000 B = 20 KB -> >= ~0.3 s.
  h.chain->insert(std::make_shared<ThrottleFilter>(50'000.0, 1000.0), 0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) h.source->push(Bytes(1000, 1));
  h.run_to_completion();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(h.sink->count(), 20u);
  EXPECT_GT(elapsed, 0.3);
}

TEST(Throttle, PacesWithoutStallingASharedWorker) {
  // Two chains on ONE worker: the throttle paces with a timer on the loop,
  // not by sleeping on it, so the unthrottled chain delivers everything
  // while the throttle is still metering its ~1 s of traffic.
  core::WorkerPool pool(1);
  struct Chain {
    std::shared_ptr<core::QueuePacketSource> source =
        std::make_shared<core::QueuePacketSource>();
    std::shared_ptr<core::CollectingPacketSink> sink =
        std::make_shared<core::CollectingPacketSink>();
    core::FilterChain chain{
        std::make_shared<core::PacketReaderEndpoint>("in", source),
        std::make_shared<core::PacketWriterEndpoint>("out", sink)};
  };
  constexpr std::size_t kSlow = 10, kFast = 500;
  {
    Chain slow, fast;
    slow.chain.append(std::make_shared<ThrottleFilter>(10'000.0, 1000.0));
    slow.chain.host_on(pool.worker(0));
    fast.chain.host_on(pool.worker(0));
    slow.chain.start();
    fast.chain.start();
    for (std::size_t i = 0; i < kSlow; ++i) slow.source->push(Bytes(1000, 1));
    ASSERT_TRUE(slow.sink->wait_for(1));  // the throttle is pacing now
    for (std::size_t i = 0; i < kFast; ++i) fast.source->push(Bytes(100, 2));
    ASSERT_TRUE(fast.sink->wait_for(kFast));
    EXPECT_LT(slow.sink->count(), kSlow);
    slow.source->finish();
    fast.source->finish();
    slow.chain.shutdown();
    fast.chain.shutdown();
    EXPECT_EQ(slow.sink->count(), kSlow);
  }
  pool.stop();
}

TEST(Throttle, RejectsNonPositiveRate) {
  EXPECT_THROW(ThrottleFilter(0.0), std::invalid_argument);
  EXPECT_THROW(ThrottleFilter(-5.0), std::invalid_argument);
}

TEST(Throttle, RateParamUpdates) {
  ThrottleFilter f(1000.0);
  EXPECT_TRUE(f.set_param("bytes_per_sec", "2000"));
  EXPECT_FALSE(f.set_param("bytes_per_sec", "-1"));
  EXPECT_FALSE(f.set_param("bytes_per_sec", "zzz"));
  EXPECT_EQ(f.describe(), "throttle(2000B/s)");
}

// ---------------------------------------------------------------------------
// Stats

TEST(Stats, CountsTraffic) {
  Harness h;
  auto tap = std::make_shared<StatsFilter>("tap");
  h.chain->insert(tap, 0);
  for (int i = 0; i < 10; ++i) h.source->push(Bytes(100, 1));
  h.run_to_completion();
  EXPECT_EQ(tap->packets(), 10u);
  EXPECT_EQ(tap->bytes(), 1000u);
  EXPECT_EQ(h.sink->count(), 10u);  // pass-through
}

// ---------------------------------------------------------------------------
// Interleave filters

TEST(InterleaveFilters, PairRestoresOrderInChain) {
  Harness h;
  h.chain->insert(std::make_shared<InterleaveFilter>(3, 5), 0);
  h.chain->insert(std::make_shared<DeinterleaveFilter>(3, 5), 1);
  const auto sent = media_payloads(31);  // two full blocks + partial
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
}

// ---------------------------------------------------------------------------
// Cache

TEST(ContentStoreTest, LruEvicts) {
  ContentStore store(250);
  store.put(1, Bytes(100, 1));
  store.put(2, Bytes(100, 2));
  store.put(3, Bytes(100, 3));  // evicts hash 1
  EXPECT_EQ(store.get(1), nullptr);
  EXPECT_NE(store.get(2), nullptr);
  EXPECT_NE(store.get(3), nullptr);
  EXPECT_LE(store.size_bytes(), 250u);
}

TEST(ContentStoreTest, GetRefreshesRecency) {
  ContentStore store(250);
  store.put(1, Bytes(100, 1));
  store.put(2, Bytes(100, 2));
  store.get(1);                 // 1 is now most recent
  store.put(3, Bytes(100, 3));  // evicts 2, not 1
  EXPECT_NE(store.get(1), nullptr);
  EXPECT_EQ(store.get(2), nullptr);
}

TEST(ContentStoreTest, OversizedBodyNotStored) {
  ContentStore store(50);
  store.put(1, Bytes(100, 1));
  EXPECT_EQ(store.get(1), nullptr);
  EXPECT_EQ(store.size_bytes(), 0u);
}

TEST(CacheFilters, RepeatedContentShrinksAndRoundTrips) {
  Harness h;
  auto pack = std::make_shared<CachePackFilter>();
  h.chain->insert(pack, 0);
  h.chain->insert(std::make_shared<CacheExpandFilter>(), 1);

  const Bytes resource(5000, 0x5a);  // "the same URL body", fetched 5 times
  std::vector<Bytes> sent(5, resource);
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
  EXPECT_EQ(pack->hits(), 4u);
  EXPECT_EQ(pack->misses(), 1u);
}

TEST(CacheFilters, DistinctContentPassesThrough) {
  Harness h;
  auto pack = std::make_shared<CachePackFilter>();
  h.chain->insert(pack, 0);
  h.chain->insert(std::make_shared<CacheExpandFilter>(), 1);
  const auto sent = media_payloads(10);
  for (auto& p : sent) h.source->push(p);
  h.run_to_completion();
  EXPECT_EQ(h.sink->packets(), sent);
  EXPECT_EQ(pack->hits(), 0u);
}

// ---------------------------------------------------------------------------
// Registry

TEST(BuiltinRegistry, AllNamesConstruct) {
  core::FilterRegistry registry;
  register_builtin_filters(registry);
  for (const auto& name : registry.names()) {
    auto filter = registry.create({name, {}});
    ASSERT_NE(filter, nullptr) << name;
  }
}

TEST(BuiltinRegistry, ParamsArePassedThrough) {
  core::FilterRegistry registry;
  register_builtin_filters(registry);
  auto fec = registry.create({"fec-encode", {{"n", "8"}, {"k", "2"}}});
  EXPECT_EQ(fec->params().at("n"), "8");
  EXPECT_EQ(fec->params().at("k"), "2");
  auto throttle = registry.create({"throttle", {{"bytes_per_sec", "1234"}}});
  EXPECT_EQ(throttle->describe(), "throttle(1234B/s)");
}

TEST(BuiltinRegistry, GlobalRegistrationIdempotent) {
  register_builtin_filters();
  register_builtin_filters();
  EXPECT_TRUE(core::global_registry().contains("fec-encode"));
}

}  // namespace
}  // namespace rapidware::filters
