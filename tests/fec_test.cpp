// Tests for the FEC suite: GF(2^8) field axioms, matrix algebra,
// Reed-Solomon any-k-of-n recovery (property-tested across the (n, k)
// design space), XOR parity baseline, group encoder/decoder state machines,
// interleaving, and UEP policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cstdlib>
#include <numeric>

#include "fec/fec_group.h"
#include "fec/gf256.h"
#include "fec/gf256_kernels.h"
#include "fec/interleaver.h"
#include "fec/matrix.h"
#include "fec/rs_code.h"
#include "fec/uep.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace rapidware::fec {
namespace {

using util::Bytes;
using util::Rng;

Bytes random_payload(Rng& rng, std::size_t len) {
  Bytes b(len);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

// ---------------------------------------------------------------------------
// GF(2^8)

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf::add(0x53, 0xca), 0x53 ^ 0xca);
  EXPECT_EQ(gf::add(7, 7), 0);  // every element is its own inverse
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(x, 1), x);
    EXPECT_EQ(gf::mul(1, x), x);
    EXPECT_EQ(gf::mul(x, 0), 0);
    EXPECT_EQ(gf::mul(0, x), 0);
  }
}

TEST(Gf256, MultiplicationCommutes) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
  }
}

TEST(Gf256, MultiplicationAssociates) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, MultiplicationDistributesOverAddition) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf::mul(a, gf::add(b, c)),
              gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(x, gf::inverse(x)), 1) << "element " << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    auto b = static_cast<std::uint8_t>(rng.next_u64());
    if (b == 0) b = 1;
    EXPECT_EQ(gf::div(gf::mul(a, b), b), a);
  }
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (int a = 1; a < 256; a += 17) {
    std::uint8_t acc = 1;
    for (unsigned p = 0; p < 10; ++p) {
      EXPECT_EQ(gf::pow(static_cast<std::uint8_t>(a), p), acc);
      acc = gf::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

TEST(Gf256, PowZeroBase) {
  EXPECT_EQ(gf::pow(0, 0), 1);  // convention: x^0 == 1
  EXPECT_EQ(gf::pow(0, 5), 0);
}

TEST(Gf256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group for 0x11d: the powers of 2 must
  // cycle through all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]) << "cycle shorter than 255 at " << i;
    seen[x] = true;
    x = gf::mul(x, 2);
  }
  EXPECT_EQ(x, 1);
}

TEST(Gf256, MulAddMatchesScalarLoop) {
  Rng rng(5);
  const Bytes src = random_payload(rng, 333);
  for (const std::uint8_t c : {0, 1, 2, 37, 255}) {
    Bytes dst = random_payload(rng, src.size());
    Bytes expected = dst;
    for (std::size_t i = 0; i < src.size(); ++i) {
      expected[i] = gf::add(expected[i], gf::mul(c, src[i]));
    }
    gf::mul_add(dst, src, c);
    EXPECT_EQ(dst, expected) << "c=" << int(c);
  }
}

TEST(Gf256, MulAssignMatchesScalarLoop) {
  Rng rng(6);
  const Bytes src = random_payload(rng, 257);
  for (const std::uint8_t c : {0, 1, 3, 128, 254}) {
    Bytes dst(src.size(), 0xAA);
    gf::mul_assign(dst, src, c);
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(dst[i], gf::mul(c, src[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// GF(2^8) kernel layer (gf256_kernels.h)

TEST(GfKernels, BackendNamesRoundTrip) {
  for (const auto b :
       {gf::Backend::kReference, gf::Backend::kPortable64,
        gf::Backend::kSsse3, gf::Backend::kAvx2, gf::Backend::kNeon}) {
    EXPECT_EQ(gf::parse_backend(gf::to_string(b)), b);
  }
  EXPECT_EQ(gf::parse_backend("no-such-backend"), std::nullopt);
  EXPECT_EQ(gf::parse_backend(""), std::nullopt);
}

TEST(GfKernels, PortableBackendsAlwaysSupported) {
  const auto supported = gf::supported_backends();
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      gf::Backend::kReference),
            supported.end());
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      gf::Backend::kPortable64),
            supported.end());
  for (const auto b : supported) {
    ASSERT_NE(gf::kernels_for(b), nullptr) << gf::to_string(b);
    EXPECT_EQ(gf::kernels_for(b)->backend, b);
  }
}

// The tentpole contract: every compiled-in backend is byte-identical to the
// scalar reference across ALL 256 coefficients, every length 0..64, and
// several misaligned span offsets (SIMD kernels use unaligned loads; the
// offsets walk the buffers off 16/32-byte boundaries). Lengths up to 64
// exercise the 32-byte AVX2 main loop, the 16-byte SSE/NEON loop, the
// 8-byte SWAR loop, and every tail size.
TEST(GfKernels, AllBackendsMatchReferenceExhaustively) {
  const gf::Kernels& ref = *gf::kernels_for(gf::Backend::kReference);
  constexpr std::size_t kMaxLen = 64;
  constexpr std::size_t kOffsets[] = {0, 1, 3, 13};
  constexpr std::size_t kSlack = 16;

  Rng rng(99);
  const Bytes src_buf = [&] {
    Bytes b = random_payload(rng, kMaxLen + kSlack);
    b[0] = 0;   // make sure zero bytes are covered
    b[17] = 0;
    return b;
  }();
  const Bytes dst_buf = random_payload(rng, kMaxLen + kSlack);

  for (const auto backend : gf::supported_backends()) {
    if (backend == gf::Backend::kReference) continue;
    const gf::Kernels& k = *gf::kernels_for(backend);
    SCOPED_TRACE(k.name);
    for (int c = 0; c < 256; ++c) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (const std::size_t off : kOffsets) {
          const util::ByteSpan src{src_buf.data() + off, len};

          Bytes expect(dst_buf.begin(), dst_buf.end());
          Bytes got = expect;
          ref.mul_add({expect.data() + off, len}, src,
                      static_cast<std::uint8_t>(c));
          k.mul_add({got.data() + off, len}, src,
                    static_cast<std::uint8_t>(c));
          ASSERT_EQ(got, expect) << "mul_add c=" << c << " len=" << len
                                 << " off=" << off;

          ref.mul_assign({expect.data() + off, len}, src,
                         static_cast<std::uint8_t>(c));
          k.mul_assign({got.data() + off, len}, src,
                       static_cast<std::uint8_t>(c));
          ASSERT_EQ(got, expect) << "mul_assign c=" << c << " len=" << len
                                 << " off=" << off;
        }
      }
    }
    // xor_add has no coefficient dimension; sweep lengths and offsets.
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      for (const std::size_t off : kOffsets) {
        Bytes expect(dst_buf.begin(), dst_buf.end());
        Bytes got = expect;
        const util::ByteSpan src{src_buf.data() + off, len};
        ref.xor_add({expect.data() + off, len}, src);
        k.xor_add({got.data() + off, len}, src);
        ASSERT_EQ(got, expect) << "xor_add len=" << len << " off=" << off;
      }
    }
  }
}

// Larger spans: the exhaustive sweep stops at 64 bytes, so cross-check
// wire-MTU and multi-KiB sizes (plus a prime length) on random data.
TEST(GfKernels, AllBackendsMatchReferenceOnLargeSpans) {
  const gf::Kernels& ref = *gf::kernels_for(gf::Backend::kReference);
  Rng rng(100);
  for (const std::size_t len : {333u, 1500u, 4099u}) {
    const Bytes src = random_payload(rng, len);
    const Bytes dst = random_payload(rng, len);
    for (const auto backend : gf::supported_backends()) {
      if (backend == gf::Backend::kReference) continue;
      const gf::Kernels& k = *gf::kernels_for(backend);
      for (const std::uint8_t c : {0, 1, 2, 0x1d, 0x80, 255}) {
        Bytes expect = dst;
        Bytes got = dst;
        ref.mul_add(expect, src, c);
        k.mul_add(got, src, c);
        ASSERT_EQ(got, expect)
            << k.name << " mul_add c=" << int(c) << " len=" << len;
      }
    }
  }
}

TEST(GfKernels, SetActiveBackendForcesSelection) {
  const gf::Backend original = gf::active_kernels().backend;
  Rng rng(101);
  const Bytes src = random_payload(rng, 777);
  for (const auto b : gf::supported_backends()) {
    ASSERT_TRUE(gf::set_active_backend(b)) << gf::to_string(b);
    EXPECT_EQ(gf::active_kernels().backend, b);
    // The public API must now route through this backend and still agree
    // with the reference scalar.
    Bytes got = random_payload(rng, src.size());
    Bytes expect = got;
    gf::mul_add(got, src, 0x53);
    gf::kernels_for(gf::Backend::kReference)->mul_add(expect, src, 0x53);
    EXPECT_EQ(got, expect) << gf::to_string(b);
  }
  EXPECT_TRUE(gf::set_active_backend(original));
}

TEST(GfKernels, UnsupportedBackendIsRejected) {
#if !defined(__aarch64__)
  const gf::Backend original = gf::active_kernels().backend;
  EXPECT_EQ(gf::kernels_for(gf::Backend::kNeon), nullptr);
  EXPECT_FALSE(gf::set_active_backend(gf::Backend::kNeon));
  EXPECT_EQ(gf::active_kernels().backend, original);  // selection unchanged
#else
  GTEST_SKIP() << "NEON is baseline on AArch64";
#endif
}

TEST(GfKernels, SelectedBackendPublishedAsObsGauge) {
  gf::active_kernels();  // force one-time init (registers the gauge)
  const auto snapshot = obs::registry().snapshot("fec/gf256");
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "fec/gf256/backend");
  EXPECT_EQ(snapshot[0].value,
            std::to_string(static_cast<int>(gf::active_kernels().backend)));
}

// Pinned-seed encode/decode round-trip through the ACTIVE backend — what
// the forced-backend ctest registrations (fec_backend_<name>, environment
// RW_GF_BACKEND=<name>) execute so CI exercises every backend it can run.
TEST(GfKernelsForced, PinnedSeedRoundTripUnderActiveBackend) {
  if (const char* env = std::getenv("RW_GF_BACKEND")) {
    const auto requested = gf::parse_backend(env);
    if (!requested.has_value()) {
      GTEST_SKIP() << "unknown RW_GF_BACKEND=" << env
                   << " (dispatcher auto-selects; nothing to pin)";
    }
    if (gf::kernels_for(*requested) == nullptr) {
      GTEST_SKIP() << "backend " << env << " not runnable on this host";
    }
    // Dispatch honored the env var end to end.
    ASSERT_EQ(gf::active_kernels().backend, *requested);
  }

  ReedSolomonCode code(12, 8);
  Rng rng(20260806);  // pinned: failures reproduce bit-for-bit
  std::vector<Bytes> source;
  for (int i = 0; i < 8; ++i) source.push_back(random_payload(rng, 1024));

  // Parity via the active backend must equal parity computed with the
  // reference backend (not just round-trip, which could mask a backend
  // that is self-consistently wrong).
  const auto parity = code.encode(source);
  const gf::Backend active = gf::active_kernels().backend;
  ASSERT_TRUE(gf::set_active_backend(gf::Backend::kReference));
  const auto parity_ref = code.encode(source);
  ASSERT_TRUE(gf::set_active_backend(active));
  ASSERT_EQ(parity, parity_ref);

  // Drop 4 symbols (the parity budget) and recover.
  std::vector<std::optional<Bytes>> received(12);
  for (int i = 4; i < 8; ++i) received[i] = source[i];
  for (std::size_t p = 0; p < parity.size(); ++p) received[8 + p] = parity[p];
  const auto decoded = code.decode(received);
  ASSERT_EQ(decoded.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(decoded[i], source[i]) << i;
}

// ---------------------------------------------------------------------------
// Matrix

TEST(GfMatrix, IdentityMultiplication) {
  const Matrix id = Matrix::identity(5);
  Matrix m(5, 5);
  Rng rng(7);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      m.at(i, j) = static_cast<std::uint8_t>(rng.next_u64());
    }
  }
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);
}

TEST(GfMatrix, InverseTimesSelfIsIdentity) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(8);
    Matrix m(n, n);
    // Random matrices over GF(2^8) are invertible with high probability;
    // retry when singular.
    for (;;) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          m.at(i, j) = static_cast<std::uint8_t>(rng.next_u64());
        }
      }
      try {
        const Matrix inv = m.inverted();
        EXPECT_EQ(m.multiply(inv), Matrix::identity(n));
        EXPECT_EQ(inv.multiply(m), Matrix::identity(n));
        break;
      } catch (const SingularMatrix&) {
      }
    }
  }
}

TEST(GfMatrix, SingularMatrixThrows) {
  Matrix m(2, 2);  // all zeros
  EXPECT_THROW(m.inverted(), SingularMatrix);
}

TEST(GfMatrix, DuplicateRowsAreSingular) {
  Matrix m(2, 2);
  m.at(0, 0) = 3;
  m.at(0, 1) = 7;
  m.at(1, 0) = 3;
  m.at(1, 1) = 7;
  EXPECT_THROW(m.inverted(), SingularMatrix);
}

TEST(GfMatrix, VandermondeAnyKRowsInvertible) {
  const std::size_t n = 12, k = 5;
  const Matrix v = Matrix::vandermonde(n, k);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0u);
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(k);
    EXPECT_NO_THROW(v.select_rows(rows).inverted());
  }
}

TEST(GfMatrix, SelectRowsOutOfRangeThrows) {
  const Matrix v = Matrix::vandermonde(4, 2);
  EXPECT_THROW(v.select_rows({0, 9}), std::out_of_range);
}

TEST(GfMatrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reed-Solomon: construction

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomonCode(4, 0), CodingError);
  EXPECT_THROW(ReedSolomonCode(4, 5), CodingError);
  EXPECT_THROW(ReedSolomonCode(256, 4), CodingError);
  EXPECT_NO_THROW(ReedSolomonCode(255, 255));
}

TEST(ReedSolomon, EmptySymbolVectorThrowsInsteadOfUb) {
  // Regression: checked_symbol_length used to dereference .front() on an
  // empty vector — UB. The contract is now a CodingError.
  EXPECT_THROW(detail::checked_symbol_length({}), CodingError);
  EXPECT_EQ(detail::checked_symbol_length({Bytes(7, 0)}), 7u);
}

TEST(ReedSolomon, RvalueDecodeMovesAllDataFastPath) {
  ReedSolomonCode code(6, 4);
  Rng rng(30);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 64));

  std::vector<std::optional<Bytes>> received(6);
  for (int i = 0; i < 4; ++i) received[i] = source[i];
  const std::uint8_t* payload_before = received[0]->data();

  const auto decoded = code.decode(std::move(received));
  ASSERT_EQ(decoded.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(decoded[i], source[i]);
  // The fast path must have MOVED the buffer, not copied it.
  EXPECT_EQ(decoded[0].data(), payload_before);
}

TEST(ReedSolomon, RvalueDecodeRecoveryPathStillWorks) {
  ReedSolomonCode code(6, 4);
  Rng rng(31);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 64));
  const auto parity = code.encode(source);

  std::vector<std::optional<Bytes>> received(6);
  received[0] = source[0];
  received[2] = source[2];
  received[4] = parity[0];
  received[5] = parity[1];
  EXPECT_EQ(code.decode(std::move(received)), source);
}

TEST(XorParity, MismatchedReceivedLengthsThrow) {
  XorParityCode code(3);
  Rng rng(32);
  std::vector<Bytes> source;
  for (int i = 0; i < 3; ++i) source.push_back(random_payload(rng, 20));
  const Bytes parity = code.encode(source);

  std::vector<std::optional<Bytes>> received(4);
  received[0] = source[0];
  received[1] = source[1];
  received[1]->resize(5);  // corrupt: shorter than the group's length
  received[3] = parity;
  EXPECT_THROW(code.decode(received), CodingError);
}

TEST(ReedSolomon, EncodeRejectsWrongSymbolCount) {
  ReedSolomonCode code(6, 4);
  std::vector<Bytes> three(3, Bytes(8, 0));
  EXPECT_THROW(code.encode(three), CodingError);
}

TEST(ReedSolomon, EncodeRejectsMismatchedLengths) {
  ReedSolomonCode code(6, 4);
  std::vector<Bytes> source(4, Bytes(8, 0));
  source[2].resize(9);
  EXPECT_THROW(code.encode(source), CodingError);
}

TEST(ReedSolomon, DecodeRejectsTooFewSymbols) {
  ReedSolomonCode code(6, 4);
  std::vector<std::optional<Bytes>> received(6);
  received[0] = Bytes(8, 1);
  received[5] = Bytes(8, 2);
  EXPECT_THROW(code.decode(received), CodingError);
}

TEST(ReedSolomon, OverheadFactor) {
  EXPECT_DOUBLE_EQ(ReedSolomonCode(6, 4).overhead(), 1.5);
  EXPECT_DOUBLE_EQ(ReedSolomonCode(4, 4).overhead(), 1.0);
}

// Property: for every (n, k) in a sweep, any k received symbols reconstruct
// the source exactly — the defining contract of a block erasure code [20].
struct RsParam {
  std::size_t n, k;
};

class RsRecoveryTest : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsRecoveryTest, AnyKOfNRecoversSource) {
  const auto [n, k] = GetParam();
  ReedSolomonCode code(n, k);
  Rng rng(n * 1000 + k);

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t len = 1 + rng.next_below(300);
    std::vector<Bytes> source;
    for (std::size_t i = 0; i < k; ++i) source.push_back(random_payload(rng, len));
    const std::vector<Bytes> parity = code.encode(source);
    ASSERT_EQ(parity.size(), n - k);

    // Random erasure pattern keeping exactly k survivors.
    std::vector<std::size_t> positions(n);
    std::iota(positions.begin(), positions.end(), 0u);
    std::shuffle(positions.begin(), positions.end(), rng);

    std::vector<std::optional<Bytes>> received(n);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t pos = positions[i];
      received[pos] = pos < k ? source[pos] : parity[pos - k];
    }

    const std::vector<Bytes> decoded = code.decode(received);
    ASSERT_EQ(decoded.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(decoded[i], source[i]) << "symbol " << i << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodeSweep, RsRecoveryTest,
    ::testing::Values(RsParam{6, 4}, RsParam{4, 2}, RsParam{5, 4},
                      RsParam{8, 4}, RsParam{10, 8}, RsParam{12, 8},
                      RsParam{16, 12}, RsParam{24, 16}, RsParam{32, 16},
                      RsParam{1, 1}, RsParam{2, 1}, RsParam{255, 223},
                      RsParam{48, 32}, RsParam{7, 7}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(ReedSolomon, EncodeOneMatchesBatchEncode) {
  ReedSolomonCode code(10, 4);
  Rng rng(77);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 64));
  const auto parity = code.encode(source);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(code.encode_one(source, i), source[i]);  // systematic prefix
  }
  for (std::size_t p = 0; p < parity.size(); ++p) {
    EXPECT_EQ(code.encode_one(source, 4 + p), parity[p]) << "parity " << p;
  }
}

TEST(ReedSolomon, EncodeOneValidatesArguments) {
  ReedSolomonCode code(6, 4);
  std::vector<Bytes> source(4, Bytes(8, 0));
  EXPECT_THROW(code.encode_one(source, 6), CodingError);
  std::vector<Bytes> three(3, Bytes(8, 0));
  EXPECT_THROW(code.encode_one(three, 0), CodingError);
}

TEST(ReedSolomon, GeneratorRowsIndependentOfN) {
  // The incremental-repair property: a symbol for position p is identical
  // whether produced under (n1, k) or (n2, k), so receivers may decode
  // with a code sized to the highest index they saw.
  ReedSolomonCode small(8, 4), large(32, 4);
  Rng rng(78);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 32));
  for (std::size_t pos = 0; pos < 8; ++pos) {
    EXPECT_EQ(small.encode_one(source, pos), large.encode_one(source, pos))
        << "position " << pos;
  }
}

TEST(ReedSolomon, SystematicPrefixIsUntouched) {
  ReedSolomonCode code(6, 4);
  Rng rng(10);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 64));
  // Receiving all data symbols decodes without touching parity.
  std::vector<std::optional<Bytes>> received(6);
  for (int i = 0; i < 4; ++i) received[i] = source[i];
  EXPECT_EQ(code.decode(received), source);
}

TEST(ReedSolomon, CorruptedExtraSymbolDoesNotAffectFirstK) {
  // decode() uses the first k received positions; verify the selection
  // logic by dropping data symbols one at a time with all parity present.
  ReedSolomonCode code(8, 4);
  Rng rng(11);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 32));
  const auto parity = code.encode(source);

  for (int drop = 0; drop < 4; ++drop) {
    std::vector<std::optional<Bytes>> received(8);
    for (int i = 0; i < 4; ++i) {
      if (i != drop) received[i] = source[i];
    }
    for (int p = 0; p < 4; ++p) received[4 + p] = parity[p];
    EXPECT_EQ(code.decode(received), source);
  }
}

// ---------------------------------------------------------------------------
// XOR parity baseline

TEST(XorParity, RecoversSingleLoss) {
  XorParityCode code(4);
  Rng rng(12);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 50));
  const Bytes parity = code.encode(source);

  for (int drop = 0; drop < 4; ++drop) {
    std::vector<std::optional<Bytes>> received(5);
    for (int i = 0; i < 4; ++i) {
      if (i != drop) received[i] = source[i];
    }
    received[4] = parity;
    EXPECT_EQ(code.decode(received), source);
  }
}

TEST(XorParity, DoubleLossIsUnrecoverable) {
  XorParityCode code(4);
  Rng rng(13);
  std::vector<Bytes> source;
  for (int i = 0; i < 4; ++i) source.push_back(random_payload(rng, 50));
  const Bytes parity = code.encode(source);

  std::vector<std::optional<Bytes>> received(5);
  received[0] = source[0];
  received[1] = source[1];
  received[4] = parity;
  const auto decoded = code.decode(received);
  EXPECT_EQ(decoded[0], source[0]);
  EXPECT_EQ(decoded[1], source[1]);
  EXPECT_TRUE(decoded[2].empty());
  EXPECT_TRUE(decoded[3].empty());
}

TEST(XorParity, NoLossPassesThrough) {
  XorParityCode code(3);
  Rng rng(14);
  std::vector<Bytes> source;
  for (int i = 0; i < 3; ++i) source.push_back(random_payload(rng, 10));
  std::vector<std::optional<Bytes>> received(4);
  for (int i = 0; i < 3; ++i) received[i] = source[i];
  EXPECT_EQ(code.decode(received), source);  // parity loss is irrelevant
}

// ---------------------------------------------------------------------------
// Symbol framing

TEST(SymbolFraming, RoundTrip) {
  Rng rng(15);
  const Bytes payload = random_payload(rng, 123);
  const Bytes symbol = make_symbol(payload, 200);
  EXPECT_EQ(symbol.size(), 200u);
  EXPECT_EQ(parse_symbol(symbol), payload);
}

TEST(SymbolFraming, EmptyPayload) {
  const Bytes symbol = make_symbol({}, 2);
  EXPECT_EQ(parse_symbol(symbol), Bytes{});
}

TEST(SymbolFraming, OversizedPayloadThrows) {
  EXPECT_THROW(make_symbol(Bytes(10), 11), CodingError);
}

TEST(SymbolFraming, CorruptLengthThrows) {
  Bytes symbol{0xff, 0xff, 1, 2, 3};
  EXPECT_THROW(parse_symbol(symbol), CodingError);
}

// ---------------------------------------------------------------------------
// Group encoder / decoder

TEST(GroupCoding, HeaderRoundTrip) {
  util::Writer w;
  GroupHeader{123456, 3, 4, 6, 162}.encode_to(w);
  EXPECT_EQ(w.bytes().size(), GroupHeader::kWireSize);
  util::Reader r(w.bytes());
  const GroupHeader h = GroupHeader::decode_from(r);
  EXPECT_EQ(h.group_id, 123456u);
  EXPECT_EQ(h.index, 3);
  EXPECT_EQ(h.k, 4);
  EXPECT_EQ(h.n, 6);
  EXPECT_EQ(h.symbol_len, 162);
  EXPECT_FALSE(h.is_parity());
}

TEST(GroupCoding, InvalidHeaderThrows) {
  util::Writer w;
  w.u16(kFecMagic);
  w.u32(1);
  w.u8(6);  // index >= n
  w.u8(4);
  w.u8(6);
  w.u16(10);
  util::Reader r(w.bytes());
  EXPECT_THROW(GroupHeader::decode_from(r), CodingError);
}

TEST(GroupCoding, EncoderEmitsNothingUntilGroupFills) {
  GroupEncoder enc(6, 4);
  Rng rng(16);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(enc.add(random_payload(rng, 100)).empty());
  }
  const auto wire = enc.add(random_payload(rng, 100));
  EXPECT_EQ(wire.size(), 6u);
  EXPECT_EQ(enc.groups_emitted(), 1u);
}

TEST(GroupCoding, LosslessPathDeliversPayloadsInOrder) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec;
  Rng rng(17);

  std::vector<Bytes> sent;
  std::vector<Bytes> delivered;
  for (int i = 0; i < 40; ++i) {
    const Bytes payload = random_payload(rng, 50 + rng.next_below(100));
    sent.push_back(payload);
    for (const auto& wire : enc.add(payload)) {
      for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
    }
  }
  for (const auto& wire : enc.flush()) {
    for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));

  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(dec.stats().data_recovered, 0u);
  EXPECT_EQ(dec.stats().data_lost, 0u);
}

TEST(GroupCoding, RecoversUpToParityLossesPerGroup) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec;
  Rng rng(18);

  std::vector<Bytes> sent;
  std::vector<Bytes> delivered;
  int drop_phase = 0;
  for (int i = 0; i < 40; ++i) {
    const Bytes payload = random_payload(rng, 80);
    sent.push_back(payload);
    for (const auto& wire : enc.add(payload)) {
      // Drop 2 packets of every group (positions rotate per group).
      util::Reader hr(wire);
      const std::size_t idx = GroupHeader::decode_from(hr).index;
      if (idx == static_cast<std::size_t>(drop_phase % 5) ||
          idx == static_cast<std::size_t>((drop_phase % 5) + 1)) {
        continue;
      }
      for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
    }
    if (i % 4 == 3) ++drop_phase;
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));

  EXPECT_EQ(delivered, sent);  // 2 losses per (6,4) group: fully recovered
  EXPECT_GT(dec.stats().data_recovered, 0u);
  EXPECT_EQ(dec.stats().data_lost, 0u);
}

TEST(GroupCoding, BeyondParityLossesDeliversSurvivors) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec(/*window=*/0);
  Rng rng(19);

  std::vector<Bytes> sent;
  std::vector<Bytes> delivered;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      const Bytes payload = random_payload(rng, 60);
      sent.push_back(payload);
      for (const auto& wire : enc.add(payload)) {
        util::Reader hr(wire);
        const std::uint8_t idx = GroupHeader::decode_from(hr).index;
        if (g == 1 && idx < 3) continue;  // drop 3 of 6 in group 1
        for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
      }
    }
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));

  // Group 1 lost data packets 0..2 (parity can't cover 3 losses); data
  // packet 3 must still arrive, in order.
  ASSERT_EQ(delivered.size(), sent.size() - 3);
  EXPECT_EQ(delivered[4], sent[7]);  // group 1's surviving packet
  EXPECT_EQ(dec.stats().data_lost, 3u);
  EXPECT_EQ(dec.stats().groups_incomplete, 1u);
}

TEST(GroupCoding, FlushEncodesShortGroupWithParity) {
  GroupEncoder enc(6, 4);
  Rng rng(20);
  enc.add(random_payload(rng, 30));
  enc.add(random_payload(rng, 30));
  const auto wire = enc.flush();
  // Short group: m=2 data + 2 parity = (4, 2) code.
  ASSERT_EQ(wire.size(), 4u);
  util::Reader r(wire[0]);
  const GroupHeader h = GroupHeader::decode_from(r);
  EXPECT_EQ(h.k, 2);
  EXPECT_EQ(h.n, 4);
}

TEST(GroupCoding, ShortGroupSurvivesLosses) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec;
  Rng rng(21);
  const Bytes p0 = random_payload(rng, 44);
  const Bytes p1 = random_payload(rng, 55);
  enc.add(p0);
  enc.add(p1);
  std::vector<Bytes> delivered;
  const auto wire = enc.flush();
  // Drop both original data packets; parity alone must rebuild them.
  for (const auto& w : wire) {
    util::Reader r(w);
    if (!GroupHeader::decode_from(r).is_parity()) continue;
    for (auto& out : dec.add(w)) delivered.push_back(std::move(out));
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], p0);
  EXPECT_EQ(delivered[1], p1);
}

TEST(GroupCoding, DuplicatesAreCountedAndIgnored) {
  GroupEncoder enc(3, 2);
  GroupDecoder dec;
  Rng rng(22);
  enc.add(random_payload(rng, 10));
  const auto wire = enc.add(random_payload(rng, 10));
  dec.add(wire[0]);
  dec.add(wire[0]);
  EXPECT_EQ(dec.stats().duplicates, 1u);
}

TEST(GroupCoding, StalePacketsAreDropped) {
  GroupEncoder enc(3, 2);
  GroupDecoder dec(/*window=*/0);
  Rng rng(23);
  std::vector<std::vector<Bytes>> groups;
  for (int g = 0; g < 3; ++g) {
    enc.add(random_payload(rng, 10));
    groups.push_back(enc.add(random_payload(rng, 10)));
  }
  dec.add(groups[0][0]);
  dec.add(groups[2][0]);  // group 0 expires (window 0)
  dec.add(groups[2][1]);
  dec.add(groups[0][1]);  // late packet for a released group
  EXPECT_EQ(dec.stats().stale, 1u);
}

TEST(GroupCoding, FreshEncoderAfterShortSequenceResyncs) {
  // A short-lived encoder leaves the release cursor well inside the
  // restart threshold. Its replacement restarts at group 0 — the decoder
  // must recognize the (group 0, symbol 0) splice signature instead of
  // dropping the whole successor head as stale.
  GroupDecoder dec;
  Rng rng(25);
  std::vector<Bytes> delivered;
  for (int round = 0; round < 3; ++round) {
    GroupEncoder enc(3, 2);  // fresh encoder: ids restart at 0
    for (int g = 0; g < 2; ++g) {
      enc.add(random_payload(rng, 10));
      for (const auto& w : enc.add(random_payload(rng, 10))) {
        for (auto& out : dec.add(w)) delivered.push_back(std::move(out));
      }
    }
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));
  EXPECT_EQ(delivered.size(), 12u);  // 3 rounds x 2 groups x k=2 data
  // One unneeded parity per group arrives after its group released (in-order
  // lossless delivery): counted late, but no DATA was dropped as stale.
  EXPECT_EQ(dec.stats().stale, 6u);
  EXPECT_EQ(dec.stats().restarts, 2u);
  EXPECT_EQ(dec.stats().data_lost, 0u);
  EXPECT_EQ(dec.stats().data_received, 12u);
}

TEST(GroupCoding, CompleteGroupWaitsForOlderIncompleteGroup) {
  GroupEncoder enc(3, 2);
  GroupDecoder dec(/*window=*/4);
  Rng rng(24);
  std::vector<std::vector<Bytes>> groups;
  for (int g = 0; g < 2; ++g) {
    enc.add(random_payload(rng, 10));
    groups.push_back(enc.add(random_payload(rng, 10)));
  }
  // Deliver group 1 fully; group 0 only partially (1 of 2 needed symbols).
  EXPECT_TRUE(dec.add(groups[1][0]).empty());
  EXPECT_TRUE(dec.add(groups[1][1]).empty());  // complete but held: order!
  EXPECT_TRUE(dec.add(groups[0][0]).empty());
  // Completing group 0 releases both groups in order.
  const auto out = dec.add(groups[0][2]);  // parity completes group 0
  EXPECT_EQ(out.size(), 4u);
}

TEST(GroupCoding, InconsistentGroupParametersThrow) {
  GroupEncoder enc64(6, 4), enc32(3, 2);
  GroupDecoder dec;
  Rng rng(25);
  for (int i = 0; i < 3; ++i) enc64.add(random_payload(rng, 10));
  const auto wire_a = enc64.add(random_payload(rng, 10));
  enc32.add(random_payload(rng, 10));
  const auto wire_b = enc32.add(random_payload(rng, 10));  // same group id 0
  dec.add(wire_a[0]);
  EXPECT_THROW(dec.add(wire_b[0]), CodingError);
}

TEST(GroupCoding, EmptyFlushIsEmpty) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec;
  EXPECT_TRUE(enc.flush().empty());
  EXPECT_TRUE(dec.flush().empty());
}

TEST(GroupCoding, VariableLengthPayloadsRoundTrip) {
  GroupEncoder enc(6, 4);
  GroupDecoder dec;
  Rng rng(26);
  std::vector<Bytes> sent, delivered;
  for (int i = 0; i < 20; ++i) {
    const Bytes payload = random_payload(rng, rng.next_below(400));
    sent.push_back(payload);
    for (const auto& wire : enc.add(payload)) {
      // Drop every packet with index 1 — forces per-group recovery of a
      // variable-length payload.
      util::Reader hr(wire);
      if (GroupHeader::decode_from(hr).index == 1) continue;
      for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
    }
  }
  for (const auto& wire : enc.flush()) {
    for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
  }
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));
  EXPECT_EQ(delivered, sent);
}

// The encoder's wire packets as they were first built: explicit zero-padded
// symbols, the RS code's parity vectors, and a header-then-body Writer copy
// per packet. Oracle for the view-based encoder, which must match it byte
// for byte.
std::vector<Bytes> reference_group(const std::vector<Bytes>& payloads,
                                   std::size_t n, std::size_t k,
                                   std::uint32_t group_id) {
  const std::size_t m = payloads.size();
  const std::size_t total = m + (n - k);
  std::size_t max_payload = 0;
  for (const auto& p : payloads) max_payload = std::max(max_payload, p.size());
  const auto symbol_len = static_cast<std::uint16_t>(max_payload + 2);
  std::vector<Bytes> symbols;
  for (const auto& p : payloads) symbols.push_back(make_symbol(p, symbol_len));
  const std::vector<Bytes> parity = ReedSolomonCode(total, m).encode(symbols);
  std::vector<Bytes> wire;
  for (std::size_t i = 0; i < total; ++i) {
    util::Writer w;
    GroupHeader{group_id, static_cast<std::uint8_t>(i),
                static_cast<std::uint8_t>(m), static_cast<std::uint8_t>(total),
                symbol_len}
        .encode_to(w);
    w.raw(i < m ? payloads[i] : parity[i - m]);
    wire.push_back(w.take());
  }
  return wire;
}

TEST(GroupCoding, WireBytesMatchReferenceConstruction) {
  // Lengths 0, 1, odd and the largest a symbol can carry, mixed in groups.
  const std::size_t lengths[] = {0, 1, 333, 0xffff - 2, 20, 1001};
  const std::pair<std::size_t, std::size_t> codes[] = {
      {1, 1}, {2, 1}, {4, 4}, {4, 2}, {6, 4}, {8, 4}, {12, 8}, {255, 223}};
  Rng rng(40);
  std::size_t next_length = 0;
  for (const auto& [n, k] : codes) {
    SCOPED_TRACE("(" + std::to_string(n) + "," + std::to_string(k) + ")");
    GroupEncoder enc(n, k);
    std::uint32_t group_id = 0;
    // Two full groups, then short groups of k - 1 and of 1 sealed by flush().
    std::vector<std::size_t> sizes = {k, k};
    if (k > 1) sizes.push_back(k - 1);
    if (k > 2) sizes.push_back(1);
    for (const std::size_t m : sizes) {
      std::vector<Bytes> payloads;
      std::vector<Bytes> wire;
      for (std::size_t i = 0; i < m; ++i) {
        Bytes payload =
            random_payload(rng, lengths[next_length++ % std::size(lengths)]);
        payloads.push_back(payload);
        // Alternate the copying and the owning overload.
        wire = i % 2 == 0 ? enc.add(util::ByteSpan(payload))
                          : enc.add(std::move(payload));
        if (i + 1 < k) {
          EXPECT_TRUE(wire.empty());
        }
      }
      if (m < k) wire = enc.flush();
      EXPECT_EQ(wire, reference_group(payloads, n, k, group_id++));
    }
    EXPECT_EQ(enc.groups_emitted(), sizes.size());
    EXPECT_EQ(enc.held_count(), 0u);
  }
}

TEST(GroupCoding, SteadyStateEncodeTakesNoPoolMisses) {
  // A private arena stands in for a worker's: payloads come from it the way
  // a filter's FrameReader draws them, and every wire packet goes back to
  // it the way PacketFilter::emit(Bytes&&) releases it after the write.
  util::BufferPool arena;
  util::BufferPool* const previous = util::BufferPool::install_local(&arena);
  GroupEncoder enc(6, 4);
  const std::size_t lengths[] = {0, 1, 333, 1400, 90};
  std::size_t next_length = 0;
  const auto encode_groups = [&](int groups) {
    for (int g = 0; g < groups * 4; ++g) {
      Bytes payload =
          arena.acquire(lengths[next_length++ % std::size(lengths)]);
      for (auto& w : enc.add(std::move(payload))) arena.release(std::move(w));
    }
  };
  encode_groups(20);  // warm-up: every length pattern has cycled through
  const util::BufferPool::Stats before = arena.stats();
  encode_groups(1000);
  const util::BufferPool::Stats after = arena.stats();
  util::BufferPool::install_local(previous);
  EXPECT_EQ(after.misses - before.misses, 0u);
  // 4 payloads and 6 wire packets per group, all served from the arena.
  EXPECT_EQ(after.hits - before.hits, 1000u * 10u);
  EXPECT_EQ(enc.groups_emitted(), 1020u);
}

// Property sweep: random loss at rate p, (n,k) from the design space; the
// decoder must deliver >= the no-FEC rate and never corrupt payloads.
struct GroupSweepParam {
  std::size_t n, k;
  double loss;
};

class GroupSweepTest : public ::testing::TestWithParam<GroupSweepParam> {};

TEST_P(GroupSweepTest, DeliveredPayloadsAreExactAndOrdered) {
  const auto param = GetParam();
  GroupEncoder enc(param.n, param.k);
  GroupDecoder dec;
  Rng rng(static_cast<std::uint64_t>(param.n * 100 + param.k * 10) +
          static_cast<std::uint64_t>(param.loss * 1000));

  std::vector<Bytes> sent, delivered;
  std::size_t raw_through = 0;  // data packets the channel delivered
  auto deliver = [&](const Bytes& wire) {
    if (rng.chance(param.loss)) return;
    util::Reader r(wire);
    if (!GroupHeader::decode_from(r).is_parity()) ++raw_through;
    for (auto& out : dec.add(wire)) delivered.push_back(std::move(out));
  };
  for (int i = 0; i < 400; ++i) {
    Bytes payload = random_payload(rng, 120);
    util::Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    w.raw(payload);
    payload = w.take();
    sent.push_back(payload);
    for (const auto& wire : enc.add(payload)) deliver(wire);
  }
  for (const auto& wire : enc.flush()) deliver(wire);
  for (auto& out : dec.flush()) delivered.push_back(std::move(out));

  // Every delivered payload is byte-exact and sequence numbers strictly
  // increase (order, no duplicates).
  std::int64_t last = -1;
  for (const auto& p : delivered) {
    util::Reader r(p);
    const std::uint32_t seq = r.u32();
    EXPECT_GT(static_cast<std::int64_t>(seq), last);
    last = seq;
    EXPECT_EQ(p, sent[seq]);
  }
  // FEC must never lose a packet the channel delivered raw.
  EXPECT_GE(delivered.size(), raw_through);
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, GroupSweepTest,
    ::testing::Values(GroupSweepParam{6, 4, 0.0}, GroupSweepParam{6, 4, 0.05},
                      GroupSweepParam{6, 4, 0.2}, GroupSweepParam{6, 4, 0.5},
                      GroupSweepParam{8, 4, 0.3}, GroupSweepParam{5, 4, 0.1},
                      GroupSweepParam{12, 8, 0.15},
                      GroupSweepParam{4, 4, 0.1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss * 100));
    });

// ---------------------------------------------------------------------------
// Interleaver

TEST(Interleaver, RoundTripFullBlocks) {
  BlockInterleaver il(3, 4);
  BlockDeinterleaver dl(3, 4);
  std::vector<Bytes> sent, received;
  for (int i = 0; i < 24; ++i) {
    Bytes p{static_cast<std::uint8_t>(i)};
    sent.push_back(p);
    for (auto& out : il.add(p)) {
      for (auto& o : dl.add(out)) received.push_back(std::move(o));
    }
  }
  EXPECT_EQ(received, sent);
}

TEST(Interleaver, RoundTripWithPartialFinalBlock) {
  BlockInterleaver il(4, 4);
  BlockDeinterleaver dl(4, 4);
  std::vector<Bytes> sent, received;
  for (int i = 0; i < 21; ++i) {  // 16 + partial 5
    Bytes p{static_cast<std::uint8_t>(i)};
    sent.push_back(p);
    for (auto& out : il.add(p)) {
      for (auto& o : dl.add(out)) received.push_back(std::move(o));
    }
  }
  for (auto& out : il.flush()) {
    for (auto& o : dl.add(out)) received.push_back(std::move(o));
  }
  for (auto& o : dl.flush()) received.push_back(std::move(o));
  EXPECT_EQ(received, sent);
}

TEST(Interleaver, SpreadsBursts) {
  // A burst of `rows` consecutive transmitted packets must touch `rows`
  // DIFFERENT original rows (i.e. different FEC groups).
  const std::size_t rows = 4, depth = 4;
  BlockInterleaver il(rows, depth);
  std::vector<Bytes> wire;
  for (int i = 0; i < 16; ++i) {
    for (auto& out : il.add(Bytes{static_cast<std::uint8_t>(i)})) {
      wire.push_back(std::move(out));
    }
  }
  ASSERT_EQ(wire.size(), 16u);
  // Packets 0..3 on the wire come from original rows 0,1,2,3 (column 0).
  for (std::size_t b = 0; b < rows; ++b) {
    EXPECT_EQ(wire[b][0] / depth, b);  // original row index
  }
}

TEST(Interleaver, ZeroDimensionsThrow) {
  EXPECT_THROW(BlockInterleaver(0, 4), std::invalid_argument);
  EXPECT_THROW(BlockDeinterleaver(4, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// UEP policy

TEST(UepPolicy, StandardGradesProtection) {
  const UepPolicy p = UepPolicy::standard();
  EXPECT_GT(p.lookup(FrameClass::kKey).overhead(),
            p.lookup(FrameClass::kPredicted).overhead());
  EXPECT_GT(p.lookup(FrameClass::kPredicted).overhead(),
            p.lookup(FrameClass::kBidirectional).overhead());
  EXPECT_DOUBLE_EQ(p.lookup(FrameClass::kBidirectional).overhead(), 1.0);
}

TEST(UepPolicy, UniformIsFlat) {
  const UepPolicy p = UepPolicy::uniform({6, 4});
  EXPECT_EQ(p.lookup(FrameClass::kKey), (CodeParams{6, 4}));
  EXPECT_EQ(p.lookup(FrameClass::kBidirectional), (CodeParams{6, 4}));
}

TEST(UepPolicy, UnknownClassFallsBackToOther) {
  UepPolicy p;
  p.set(FrameClass::kOther, {6, 4});
  EXPECT_EQ(p.lookup(FrameClass::kKey), (CodeParams{6, 4}));
}

TEST(UepPolicy, EmptyPolicyThrows) {
  UepPolicy p;
  EXPECT_THROW(p.lookup(FrameClass::kKey), std::out_of_range);
}

TEST(UepPolicy, InvalidParamsThrow) {
  UepPolicy p;
  EXPECT_THROW(p.set(FrameClass::kKey, {4, 5}), std::invalid_argument);
  EXPECT_THROW(p.set(FrameClass::kKey, {4, 0}), std::invalid_argument);
}

TEST(UepPolicy, ExpectedOverheadWeighting) {
  const UepPolicy p = UepPolicy::standard();
  // All key frames -> 2.0; all B frames -> 1.0.
  EXPECT_DOUBLE_EQ(p.expected_overhead({{FrameClass::kKey, 1.0}}), 2.0);
  EXPECT_DOUBLE_EQ(p.expected_overhead({{FrameClass::kBidirectional, 1.0}}),
                   1.0);
  const double mixed = p.expected_overhead(
      {{FrameClass::kKey, 0.5}, {FrameClass::kBidirectional, 0.5}});
  EXPECT_DOUBLE_EQ(mixed, 1.5);
}

}  // namespace
}  // namespace rapidware::fec
