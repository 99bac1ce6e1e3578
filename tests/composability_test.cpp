// Tests for composability typing — the paper's "language support to
// characterize the composability of filters" (Conclusions): type algebra,
// per-filter declarations, chain type traces, and enforcement of
// insert/remove/reorder against a live stream.
#include <gtest/gtest.h>

#include "core/composability.h"
#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "filters/compress_filter.h"
#include "filters/crypto_filter.h"
#include "filters/fec_filters.h"
#include "filters/stats_filter.h"
#include "filters/transcode_filter.h"
#include "media/media_packet.h"

namespace rapidware::core {
namespace {

// ---------------------------------------------------------------------------
// Type algebra

TEST(TypeAlgebra, AnySatisfiesEverything) {
  EXPECT_TRUE(type_satisfies("any", "media"));
  EXPECT_TRUE(type_satisfies("any", "rle(media)"));
  EXPECT_TRUE(type_satisfies("any", "any"));
}

TEST(TypeAlgebra, UnknownTypeIsVacuouslyAccepted) {
  EXPECT_TRUE(type_satisfies("media", "any"));
  EXPECT_TRUE(type_satisfies("rle(*)", "any"));
}

TEST(TypeAlgebra, ExactMatch) {
  EXPECT_TRUE(type_satisfies("media", "media"));
  EXPECT_FALSE(type_satisfies("media", "video"));
  EXPECT_FALSE(type_satisfies("media", "rle(media)"));
}

TEST(TypeAlgebra, WrapperPattern) {
  EXPECT_TRUE(type_satisfies("rle(*)", "rle(media)"));
  EXPECT_TRUE(type_satisfies("rle(*)", "rle(fec(media))"));
  EXPECT_FALSE(type_satisfies("rle(*)", "media"));
  EXPECT_FALSE(type_satisfies("rle(*)", "rlex(media)"));
  EXPECT_FALSE(type_satisfies("rle(*)", "chacha20(rle(media))"));
}

TEST(TypeAlgebra, WrapAndUnwrap) {
  EXPECT_EQ(wrap_type("fec", "media"), "fec(media)");
  EXPECT_EQ(wrap_type("fec", "any"), "any");  // unknown stays unknown
  EXPECT_EQ(unwrap_type("fec", "fec(media)"), "media");
  EXPECT_EQ(unwrap_type("fec", "fec(rle(media))"), "rle(media)");
  EXPECT_EQ(unwrap_type("fec", "any"), "any");
  EXPECT_FALSE(unwrap_type("fec", "rle(media)").has_value());
  EXPECT_FALSE(unwrap_type("fec", "media").has_value());
}

TEST(TypeAlgebra, CheckStepMessages) {
  EXPECT_FALSE(check_step("f", "any", "whatever").has_value());
  const auto error = check_step("decompress", "rle(*)", "media");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("decompress"), std::string::npos);
  EXPECT_NE(error->find("rle(*)"), std::string::npos);
  EXPECT_NE(error->find("media"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Filter declarations

TEST(FilterTypes, TransformsComposeCorrectly) {
  filters::FecEncodeFilter fec_enc(6, 4);
  filters::FecDecodeFilter fec_dec;
  filters::CompressFilter comp;
  filters::DecompressFilter decomp;
  filters::EncryptFilter enc(filters::derive_key("k"));
  filters::DecryptFilter dec(filters::derive_key("k"));

  std::string t = "media";
  t = comp.output_type(t);
  EXPECT_EQ(t, "rle(media)");
  t = enc.output_type(t);
  EXPECT_EQ(t, "chacha20(rle(media))");
  t = fec_enc.output_type(t);
  EXPECT_EQ(t, "fec(chacha20(rle(media)))");
  t = fec_dec.output_type(t);
  t = dec.output_type(t);
  t = decomp.output_type(t);
  EXPECT_EQ(t, "media");
}

TEST(FilterTypes, DefaultsAreTypeNeutral) {
  filters::StatsFilter tap;
  EXPECT_EQ(tap.input_requirement(), "any");
  EXPECT_EQ(tap.output_type("fec(media)"), "fec(media)");
}

TEST(FilterTypes, TranscodeRequiresMedia) {
  filters::AudioTranscodeFilter transcode(media::paper_audio_format());
  EXPECT_EQ(transcode.input_requirement(), "media");
}

// ---------------------------------------------------------------------------
// Chain-level typing and enforcement

struct Harness {
  std::shared_ptr<QueuePacketSource> source =
      std::make_shared<QueuePacketSource>();
  std::shared_ptr<CollectingPacketSink> sink =
      std::make_shared<CollectingPacketSink>();
  std::shared_ptr<FilterChain> chain;

  Harness() {
    chain = std::make_shared<FilterChain>(
        std::make_shared<PacketReaderEndpoint>("in", source),
        std::make_shared<PacketWriterEndpoint>("out", sink));
    chain->set_stream_type("media");
    chain->start();
  }
  ~Harness() {
    source->finish();
    chain->shutdown();
  }
};

TEST(ChainTyping, TraceFollowsTransforms) {
  Harness h;
  h.chain->append(std::make_shared<filters::CompressFilter>());
  h.chain->append(std::make_shared<filters::FecEncodeFilter>(6, 4));
  EXPECT_EQ(h.chain->type_trace(),
            (std::vector<std::string>{"media", "rle(media)",
                                      "fec(rle(media))"}));
  EXPECT_FALSE(h.chain->type_error().has_value());
}

TEST(ChainTyping, RejectsDecompressorWithoutCompressor) {
  Harness h;
  EXPECT_THROW(h.chain->append(std::make_shared<filters::DecompressFilter>()),
               StreamError);
  EXPECT_EQ(h.chain->size(), 0u);  // stream untouched
}

TEST(ChainTyping, RejectsMisorderedPair) {
  Harness h;
  // decrypt before encrypt: the decryptor would see plain media.
  h.chain->append(
      std::make_shared<filters::EncryptFilter>(filters::derive_key("k")));
  EXPECT_THROW(
      h.chain->insert(
          std::make_shared<filters::DecryptFilter>(filters::derive_key("k")),
          0),
      StreamError);
  // In the right place it is accepted.
  EXPECT_NO_THROW(h.chain->insert(
      std::make_shared<filters::DecryptFilter>(filters::derive_key("k")), 1));
}

TEST(ChainTyping, RejectsRemovalDownstreamDependsOn) {
  Harness h;
  h.chain->append(std::make_shared<filters::CompressFilter>());
  h.chain->append(std::make_shared<filters::DecompressFilter>());
  // Removing the compressor would hand raw media to the decompressor.
  EXPECT_THROW(h.chain->remove(0), StreamError);
  // Removing the pair back-to-front is fine.
  EXPECT_NO_THROW(h.chain->remove(1));
  EXPECT_NO_THROW(h.chain->remove(0));
}

TEST(ChainTyping, RejectsBadReorderAllowsGoodOne) {
  Harness h;
  h.chain->append(std::make_shared<filters::CompressFilter>());
  h.chain->append(std::make_shared<filters::StatsFilter>("tap"));
  h.chain->append(std::make_shared<filters::DecompressFilter>());
  // Swapping decompress before compress must fail...
  EXPECT_THROW(h.chain->reorder(2, 0), StreamError);
  EXPECT_EQ(h.chain->size(), 3u);
  EXPECT_FALSE(h.chain->type_error().has_value());
  // ...but moving the type-neutral tap anywhere is fine.
  EXPECT_NO_THROW(h.chain->reorder(1, 0));
  EXPECT_EQ(h.chain->names(),
            (std::vector<std::string>{"tap", "compress", "decompress"}));
}

TEST(ChainTyping, FecDecoderPassThroughTyping) {
  // A permanently installed decoder is type-neutral on raw media and
  // stripping on FEC streams — both configurations type-check.
  Harness h;
  h.chain->append(std::make_shared<filters::FecDecodeFilter>());
  EXPECT_EQ(h.chain->type_trace().back(), "media");
  h.chain->insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
  EXPECT_EQ(h.chain->type_trace().back(), "media");
}

TEST(ChainTyping, LateTypeDeclarationReportsExistingMismatch) {
  auto source = std::make_shared<QueuePacketSource>();
  auto sink = std::make_shared<CollectingPacketSink>();
  FilterChain chain(std::make_shared<PacketReaderEndpoint>("in", source),
                    std::make_shared<PacketWriterEndpoint>("out", sink));
  chain.start();
  // Configured before any type is declared, the (unsound) insert goes
  // through; declaring the type afterwards makes type_error report it.
  EXPECT_NO_THROW(chain.append(std::make_shared<filters::DecompressFilter>()));
  EXPECT_FALSE(chain.type_error().has_value());
  chain.set_stream_type("media");
  EXPECT_TRUE(chain.type_error().has_value());
  source->finish();
  chain.shutdown();
}

TEST(ChainTyping, UnknownIngressTypeDisablesChecks) {
  auto source = std::make_shared<QueuePacketSource>();
  auto sink = std::make_shared<CollectingPacketSink>();
  FilterChain chain(std::make_shared<PacketReaderEndpoint>("in", source),
                    std::make_shared<PacketWriterEndpoint>("out", sink));
  chain.start();
  EXPECT_NO_THROW(chain.append(std::make_shared<filters::DecompressFilter>()));
  source->finish();
  chain.shutdown();
}

TEST(ChainTyping, TypeCheckedChainStillMovesData) {
  Harness h;
  h.chain->append(std::make_shared<filters::CompressFilter>());
  h.chain->append(
      std::make_shared<filters::EncryptFilter>(filters::derive_key("s")));
  h.chain->append(
      std::make_shared<filters::DecryptFilter>(filters::derive_key("s")));
  h.chain->append(std::make_shared<filters::DecompressFilter>());

  media::MediaPacket p;
  p.seq = 1;
  p.payload = util::Bytes(100, 0x3c);
  h.source->push(p.serialize());
  ASSERT_TRUE(h.sink->wait_for(1));
  EXPECT_EQ(h.sink->packets()[0], p.serialize());
}

}  // namespace
}  // namespace rapidware::core
