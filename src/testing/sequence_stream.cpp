#include "testing/sequence_stream.h"

#include <algorithm>
#include <sstream>

#include "testing/fault_injector.h"
#include "util/buffer_pool.h"
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
// SequencePacketSource / SequencePacketSink

namespace {
// Keeps the size draws apart from other Rng streams keyed by the same seed
// (the stress driver's control-op draws).
constexpr std::uint64_t kSizeSalt = 0x5e9a1e5ULL;
}  // namespace

SequencePacketSource::SequencePacketSource(
    std::uint64_t seed, std::uint64_t total,
    std::shared_ptr<FaultInjector> faults)
    : seed_(seed),
      total_(total),
      faults_(std::move(faults)),
      sizes_(seed ^ kSizeSalt) {}

std::optional<util::Bytes> SequencePacketSource::poll_packet(bool* finished) {
  if (faults_) {
    faults_->maybe_delay();
    if (faults_->inject_throw()) {
      throw core::StreamError("SequencePacketSource: injected read failure");
    }
  }
  *finished = next_ >= total_ || interrupted_.load(std::memory_order_relaxed);
  if (*finished) return std::nullopt;
  // Uniform below a bound drawn from 2, 4, ..., 2048 (capped at
  // kMaxPacket). Small packets are common enough that a stream takes many
  // polls, which keeps it in flight while the stress driver's control ops
  // run.
  const std::uint64_t bound =
      std::min<std::uint64_t>(std::uint64_t{2} << sizes_.next_below(11),
                              kMaxPacket);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(1 + sizes_.next_below(bound), total_ - next_));
  util::Bytes packet = util::BufferPool::local().acquire(n);
  fill_pattern(seed_, next_, packet);
  next_ += n;
  return packet;
}

SequencePacketSink::SequencePacketSink(std::uint64_t seed,
                                       std::shared_ptr<FaultInjector> faults)
    : faults_(std::move(faults)), checker_(seed) {}

void SequencePacketSink::deliver(util::ByteSpan packet) {
  if (faults_) {
    faults_->maybe_delay();
    if (faults_->inject_throw()) {
      throw core::BrokenPipe("SequencePacketSink: injected write failure");
    }
  }
  checker_.write(packet);
  packets_.fetch_add(1, std::memory_order_release);
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
