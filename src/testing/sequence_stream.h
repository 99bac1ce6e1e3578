// Sequence-stamped payloads: the oracle that turns "no byte was lost,
// duplicated, or reordered" into a mechanical check.
//
// The byte at absolute stream offset p has the deterministic value
// pattern_byte(seed, p) (a SplitMix64 keystream). Because every position
// has a distinct expected value, ANY loss, duplication, reordering, or
// corruption shifts or perturbs the stream and is caught at the first
// divergent offset — the checker doesn't need to understand framing or
// filters, only offsets. For a chain, SequencePacketSource slices the
// stream into packets for the reader endpoint and SequencePacketSink feeds
// what the writer endpoint delivers into a SequenceChecker; equality of
// (bytes delivered, bytes expected) plus a clean checker proves end-to-end
// integrity, whatever stages run in between.
//
// For packet (datagram) paths, where loss is legitimate, StampedPacket /
// PacketLedger do the per-packet equivalent: each packet carries its
// sequence number and a payload derived from it, and the ledger classifies
// what arrived as ok / duplicate / reordered / corrupt.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/endpoint.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rapidware::testing {

class FaultInjector;

/// Expected value of the byte at offset `p` in the stream keyed by `seed`.
std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t p) noexcept;

/// Fills `out` with pattern bytes for offsets [start, start + out.size()).
void fill_pattern(std::uint64_t seed, std::uint64_t start,
                  util::MutableByteSpan out) noexcept;

/// Verifies that byte i of the concatenated input equals
/// pattern_byte(seed, i). Records the first divergence and keeps counting
/// bytes afterwards, so a failure report shows both where the stream broke
/// and how much arrived. One writer; received() may be polled from another
/// thread while the stream runs, the verdict read once it has ended.
class SequenceChecker {
 public:
  explicit SequenceChecker(std::uint64_t seed);

  void write(util::ByteSpan in);

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

/// Computed PacketSource: the first `total` bytes of the pattern stream
/// keyed by `seed`, sliced into packets of 1..kMaxPacket bytes, then end
/// of stream. The sizes are drawn from the same seed, spread evenly over
/// the power-of-two size classes: many small packets, and a few larger
/// than any stress ring. A poll always makes progress, so the source
/// needs no scheduler. Each packet is acquired
/// from the polling thread's arena (util::BufferPool::local(): the
/// worker's, which the reader endpoint recycles it into). With `faults`,
/// every poll may first be delayed or throw core::StreamError.
class SequencePacketSource final : public core::PacketSource {
 public:
  /// Above the stress harness's largest ring (1 KiB), so a frame also
  /// meets a pass-through stage whose ring must grow to take it whole.
  static constexpr std::size_t kMaxPacket = 1500;

  SequencePacketSource(std::uint64_t seed, std::uint64_t total,
                       std::shared_ptr<FaultInjector> faults = nullptr);

  std::optional<util::Bytes> poll_packet(bool* finished) override;
  /// Ends the stream at the next poll.
  void interrupt() override {
    interrupted_.store(true, std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept { return total_; }

 private:
  const std::uint64_t seed_;
  const std::uint64_t total_;
  const std::shared_ptr<FaultInjector> faults_;
  std::atomic<bool> interrupted_{false};
  // Poller-only (the reader endpoint's drive).
  util::Rng sizes_;
  std::uint64_t next_ = 0;
};

/// PacketSink feeding every payload, in arrival order, into a
/// SequenceChecker. With `faults`, every delivery may first be delayed or
/// throw core::BrokenPipe; a packet the sink threw on is not checked.
class SequencePacketSink final : public core::PacketSink {
 public:
  explicit SequencePacketSink(std::uint64_t seed,
                              std::shared_ptr<FaultInjector> faults = nullptr);

  void deliver(util::ByteSpan packet) override;

  const SequenceChecker& checker() const noexcept { return checker_; }
  /// Packets accepted (delivered without a throw).
  std::uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_acquire);
  }

 private:
  const std::shared_ptr<FaultInjector> faults_;
  SequenceChecker checker_;
  std::atomic<std::uint64_t> packets_{0};
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
