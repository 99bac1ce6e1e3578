#include "testing/sequence_stream.h"

#include <algorithm>
#include <sstream>

#include "util/serial.h"

namespace rapidware::testing {

namespace {

// SplitMix64 — the same finalizer Rng uses for seeding; one call per
// 8-byte block keeps pattern generation cheap.
std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t p) noexcept {
  const std::uint64_t block = splitmix(seed ^ (p >> 3));
  return static_cast<std::uint8_t>(block >> (8 * (p & 7)));
}

void fill_pattern(std::uint64_t seed, std::uint64_t start,
                  util::MutableByteSpan out) noexcept {
  std::uint64_t p = start;
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t block = splitmix(seed ^ (p >> 3));
    for (unsigned b = static_cast<unsigned>(p & 7); b < 8 && i < out.size();
         ++b, ++i, ++p) {
      out[i] = static_cast<std::uint8_t>(block >> (8 * b));
    }
  }
}

// ---------------------------------------------------------------------------
// SequenceGenerator

SequenceGenerator::SequenceGenerator(std::uint64_t seed, std::uint64_t total)
    : seed_(seed), total_(total) {}

std::size_t SequenceGenerator::read_some(util::MutableByteSpan out) {
  if (next_ >= total_ || out.empty()) return 0;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(out.size(), total_ - next_));
  fill_pattern(seed_, next_, out.first(n));
  next_ += n;
  return n;
}

std::size_t SequenceGenerator::poll_read_borrow(std::size_t max,
                                                util::SpanVisitor visit,
                                                bool* end) {
  if (next_ >= total_) {
    *end = true;
    return 0;
  }
  *end = false;
  std::uint8_t tmp[4096];
  std::size_t want = sizeof tmp;
  if (max != 0 && max < want) want = max;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(want, total_ - next_));
  fill_pattern(seed_, next_, util::MutableByteSpan(tmp, n));
  const std::size_t consumed = visit(util::ByteSpan(tmp, n), util::ByteSpan());
  // Only the consumed prefix leaves the stream: the pattern is recomputed
  // from the offset, so partial consumption needs no retained tail.
  next_ += consumed;
  return consumed;
}

// ---------------------------------------------------------------------------
// SequenceChecker

SequenceChecker::SequenceChecker(std::uint64_t seed) : seed_(seed) {}

void SequenceChecker::write(util::ByteSpan in) {
  std::uint64_t offset = received_.load(std::memory_order_relaxed);
  for (const std::uint8_t actual : in) {
    if (!divergence_) {
      const std::uint8_t expected = pattern_byte(seed_, offset);
      if (actual != expected) {
        divergence_ = Divergence{offset, expected, actual};
      }
    }
    ++offset;
  }
  received_.store(offset, std::memory_order_release);
}

std::size_t SequenceChecker::try_write_some(util::ByteSpan in) {
  write(in);  // verification is immediate; nothing ever refuses bytes
  return in.size();
}

bool SequenceChecker::try_write_vec(std::span<const util::ByteSpan> segments) {
  for (const util::ByteSpan seg : segments) write(seg);
  return true;
}

std::string SequenceChecker::report() const {
  if (clean()) return "";
  std::ostringstream os;
  os << "stream diverged at offset " << divergence_->offset << ": expected 0x"
     << std::hex << int(divergence_->expected) << ", got 0x"
     << int(divergence_->actual) << std::dec << " (" << received()
     << " bytes received)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Stamped packets

util::Bytes make_stamped_packet(std::uint64_t seed, std::uint32_t seq,
                                std::size_t size) {
  util::Writer w(size);
  w.u32(seq);
  util::Bytes body(size > 4 ? size - 4 : 0);
  fill_pattern(seed ^ seq, 0, body);
  w.raw(body);
  return w.take();
}

PacketLedger::PacketLedger(std::uint64_t seed, std::uint32_t expected_count)
    : seed_(seed), expected_(expected_count) {}

void PacketLedger::record(util::ByteSpan packet) {
  std::uint32_t seq = 0;
  try {
    util::Reader r(packet);
    seq = r.u32();
    const util::Bytes body = r.raw(r.remaining());
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i] != pattern_byte(seed_ ^ seq, i)) {
        ++corrupt_;
        return;
      }
    }
  } catch (const util::SerialError&) {
    ++corrupt_;
    return;
  }
  if (!seen_.insert(seq).second) {
    ++duplicates_;
    return;
  }
  if (any_ && seq < highest_) ++reordered_;
  highest_ = std::max(highest_, seq);
  any_ = true;
  ++ok_;
}

std::uint32_t PacketLedger::lost() const noexcept {
  return expected_ - static_cast<std::uint32_t>(seen_.size());
}

}  // namespace rapidware::testing
