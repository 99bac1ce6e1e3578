// FEC group packetization — the state machines inside the paper's
// FEC Encoder / FEC Decoder components (Section 5, Figure 6).
//
// The encoder collects k source packets into a group; when the group fills
// (or is flushed), encoding routines produce n-k parity packets and all n
// packets are emitted, each prefixed with a group header:
//
//     u32 group_id | u8 index | u8 k | u8 n | u16 symbol_len | body
//
// Source packets travel unpadded (systematic code); the RS symbol for
// packet i is [u16 payload_len | payload | zero padding to symbol_len], so
// the decoder can recover exact payload boundaries for rebuilt packets.
// The encoder never materializes that symbol: zero padding contributes
// nothing to a GF(2^8) sum, so parity is accumulated from the length prefix
// and the payload alone, straight into pooled wire buffers.
//
// The decoder buffers per-group state, reconstructs as soon as ANY k of the
// n symbols arrive, and releases payloads in order. Incomplete groups are
// released (data packets only, in index order) once the stream moves
// `window` groups past them — bounding latency, which is why the paper uses
// small groups "so as to minimize jitter".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fec/rs_code.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace rapidware::fec {

/// Marks FEC wire packets, so a decoder can recognize (and pass through)
/// packets that never went through an encoder — the demand-driven scenario
/// where the FEC encoder is inserted and removed while the stream runs.
inline constexpr std::uint16_t kFecMagic = 0x4346;  // "FC"

/// Wire header of every FEC packet.
struct GroupHeader {
  std::uint32_t group_id = 0;
  std::uint8_t index = 0;  // 0..k-1 data, k..n-1 parity
  std::uint8_t k = 0;
  std::uint8_t n = 0;
  std::uint16_t symbol_len = 0;  // length of the RS symbol for this group

  static constexpr std::size_t kWireSize = 2 + 4 + 1 + 1 + 1 + 2;

  void encode_to(util::Writer& w) const;
  /// Writes the header into the first kWireSize bytes of `out`.
  void encode_to(util::MutableByteSpan out) const;
  static GroupHeader decode_from(util::Reader& r);

  bool is_parity() const noexcept { return index >= k; }
};

/// Cheap check whether a wire packet claims to be FEC-framed.
bool looks_like_fec_packet(util::ByteSpan wire);

/// Encoder side. Not thread-safe; owned by a single filter thread.
class GroupEncoder {
 public:
  GroupEncoder(std::size_t n, std::size_t k);

  std::size_t n() const noexcept { return n_; }
  std::size_t k() const noexcept { return k_; }

  /// Adds one source packet, taking ownership of its buffer (released to
  /// util::BufferPool::local() once its group is encoded). Returns the wire
  /// packets to transmit: empty until the group fills, then all n packets
  /// of the completed group, each in a buffer from BufferPool::local().
  std::vector<util::Bytes> add(util::Bytes&& payload);

  /// Copying form: holds a pooled copy of `payload`, then as above.
  std::vector<util::Bytes> add(util::ByteSpan payload);

  /// Encodes and returns any partially filled group as a short (m + n - k,
  /// m) group so the tail of a stream keeps its parity protection.
  std::vector<util::Bytes> flush();

  std::uint64_t groups_emitted() const noexcept { return groups_emitted_; }

  /// Packets buffered toward the current group (0 right after a group
  /// closes — the safe moment to swap code parameters).
  std::size_t held_count() const noexcept { return held_.size(); }

  /// Overrides the id the next group will carry. Lets several encoders
  /// (e.g. one per UEP frame class) share one id sequence so a single
  /// decoder preserves stream order.
  void set_next_group_id(std::uint32_t id) noexcept { next_group_id_ = id; }

 private:
  std::vector<util::Bytes> encode_group();

  std::size_t n_, k_;
  std::uint32_t next_group_id_ = 0;
  std::vector<util::Bytes> held_;  // owned payloads of the current group
  std::uint64_t groups_emitted_ = 0;
};

/// Decoder-side statistics, the raw material for Figure 7.
struct DecoderStats {
  std::uint64_t packets_seen = 0;       // wire packets that arrived
  std::uint64_t duplicates = 0;         // same (group, index) twice
  std::uint64_t stale = 0;              // packet for an already-released group
  std::uint64_t data_received = 0;      // source packets that arrived raw
  std::uint64_t data_recovered = 0;     // source packets rebuilt from parity
  std::uint64_t data_lost = 0;          // source packets never delivered
  std::uint64_t groups_complete = 0;    // groups decoded with >= k symbols
  std::uint64_t groups_incomplete = 0;  // groups released short
  std::uint64_t restarts = 0;           // group-id sequence restarts seen
};

/// Decoder side. Not thread-safe; owned by a single filter thread.
class GroupDecoder {
 public:
  /// `window`: how many newer groups may open before an incomplete group is
  /// force-released. A packet whose group id lies more than
  /// `restart_threshold` below the release cursor signals a *sequence
  /// restart* (a fresh encoder was spliced into the stream, e.g. by a
  /// demand-driven FEC responder); the decoder flushes and resyncs instead
  /// of discarding the new stream as stale. A below-cursor packet for
  /// (group 0, symbol 0) is treated as a restart regardless of distance:
  /// it is the first thing every fresh encoder emits and the in-order,
  /// duplicate-free transports cannot produce it late, so it disambiguates
  /// restarts that follow a short-lived (< restart_threshold groups)
  /// predecessor sequence.
  explicit GroupDecoder(std::size_t window = 2,
                        std::uint32_t restart_threshold = 64);

  /// Consumes one wire packet; returns source payloads now releasable, in
  /// stream order (may span several groups). Corrupt packets throw
  /// util::SerialError / CodingError.
  std::vector<util::Bytes> add(util::ByteSpan wire_packet);

  /// Releases everything still pending (end of stream).
  std::vector<util::Bytes> flush();

  const DecoderStats& stats() const noexcept { return stats_; }

 private:
  struct Group {
    std::uint8_t k = 0;
    std::uint8_t n = 0;
    std::uint16_t symbol_len = 0;
    std::size_t received = 0;
    std::vector<std::optional<util::Bytes>> symbols;  // wire bodies by index
  };

  /// Appends releasable groups (in id order) to `out`.
  void release_ready(std::vector<util::Bytes>& out);
  void release_group(std::uint32_t id, Group& group,
                     std::vector<util::Bytes>& out);

  std::size_t window_;
  std::uint32_t restart_threshold_;
  std::map<std::uint32_t, Group> groups_;
  std::uint32_t next_release_ = 0;  // all ids below this are released
  std::uint32_t newest_seen_ = 0;
  bool saw_any_ = false;
  DecoderStats stats_;
};

/// Builds the RS symbol for a source payload: u16 length prefix + payload +
/// zero padding. Exposed for tests.
util::Bytes make_symbol(util::ByteSpan payload, std::size_t symbol_len);

/// Inverse of make_symbol; throws CodingError on a corrupt length prefix.
util::Bytes parse_symbol(util::ByteSpan symbol);

}  // namespace rapidware::fec
