// Sequence-stamped payloads: the oracle that turns "no byte was lost,
// duplicated, or reordered" into a mechanical check.
//
// The byte at absolute stream offset p has the deterministic value
// pattern_byte(seed, p) (a SplitMix64 keystream). Because every position
// has a distinct expected value, ANY loss, duplication, reordering, or
// corruption shifts or perturbs the stream and is caught at the first
// divergent offset — the checker doesn't need to understand framing or
// filters, only offsets. A generator produces the stream at one end, a
// checker consumes it at the other; equality of (bytes delivered, bytes
// expected) plus a clean checker proves end-to-end integrity.
//
// For packet (datagram) paths, where loss is legitimate, StampedPacket /
// PacketLedger do the per-packet equivalent: each packet carries its
// sequence number and a payload derived from it, and the ledger classifies
// what arrived as ok / duplicate / reordered / corrupt.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "util/bytes.h"
#include "util/io.h"

namespace rapidware::testing {

/// Expected value of the byte at offset `p` in the stream keyed by `seed`.
std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t p) noexcept;

/// Fills `out` with pattern bytes for offsets [start, start + out.size()).
void fill_pattern(std::uint64_t seed, std::uint64_t start,
                  util::MutableByteSpan out) noexcept;

/// Finite ByteSource producing exactly `total` pattern bytes, then EOF.
/// Single-reader, as the ByteSource contract requires.
class SequenceGenerator final : public util::ByteSource {
 public:
  SequenceGenerator(std::uint64_t seed, std::uint64_t total);

  std::size_t read_some(util::MutableByteSpan out) override;

  /// Pollable with no watcher: a computed source always makes progress
  /// (bytes until total_, then EOF), so a poll can never would-block —
  /// which is what lets a ByteReaderEndpoint's drive read it.
  bool pollable() const noexcept override { return true; }
  std::size_t poll_read_borrow(std::size_t max, util::SpanVisitor visit,
                               bool* end) override;

  std::uint64_t produced() const noexcept { return next_; }
  std::uint64_t total() const noexcept { return total_; }

 private:
  const std::uint64_t seed_;
  const std::uint64_t total_;
  std::uint64_t next_ = 0;
};

/// ByteSink verifying that byte i of the concatenated input equals
/// pattern_byte(seed, i). Records the first divergence and keeps counting
/// bytes afterwards, so a failure report shows both where the stream broke
/// and how much arrived. One writer; received() may be polled from another
/// thread while the stream runs, the verdict read once it has ended.
class SequenceChecker final : public util::ByteSink {
 public:
  explicit SequenceChecker(std::uint64_t seed);

  void write(util::ByteSpan in) override;

  /// Pollable with no watcher: the checker consumes any amount
  /// immediately, so a try_write never comes up short.
  bool pollable() const noexcept override { return true; }
  std::size_t try_write_some(util::ByteSpan in) override;
  bool try_write_vec(std::span<const util::ByteSpan> segments) override;

  struct Divergence {
    std::uint64_t offset;
    std::uint8_t expected;
    std::uint8_t actual;
  };

  std::uint64_t received() const noexcept {
    return received_.load(std::memory_order_acquire);
  }
  bool clean() const noexcept { return !divergence_.has_value(); }
  std::optional<Divergence> divergence() const noexcept { return divergence_; }

  /// "" when the stream is a clean prefix of the expected sequence;
  /// otherwise a one-line diagnosis.
  std::string report() const;

 private:
  const std::uint64_t seed_;
  std::atomic<std::uint64_t> received_{0};
  std::optional<Divergence> divergence_;
};

/// Builds a datagram payload: u32 sequence number + pattern bytes keyed by
/// (seed, seq). `size` must be >= 4.
util::Bytes make_stamped_packet(std::uint64_t seed, std::uint32_t seq,
                                std::size_t size);

/// Classifies stamped packets on arrival. Not thread-safe; feed it from
/// one collector thread.
class PacketLedger {
 public:
  PacketLedger(std::uint64_t seed, std::uint32_t expected_count);

  void record(util::ByteSpan packet);

  std::uint32_t ok() const noexcept { return ok_; }
  std::uint32_t duplicates() const noexcept { return duplicates_; }
  std::uint32_t reordered() const noexcept { return reordered_; }
  std::uint32_t corrupt() const noexcept { return corrupt_; }
  std::uint32_t lost() const noexcept;

 private:
  const std::uint64_t seed_;
  const std::uint32_t expected_;
  std::set<std::uint32_t> seen_;
  std::uint32_t highest_ = 0;
  bool any_ = false;
  std::uint32_t ok_ = 0;
  std::uint32_t duplicates_ = 0;
  std::uint32_t reordered_ = 0;
  std::uint32_t corrupt_ = 0;
};

}  // namespace rapidware::testing
