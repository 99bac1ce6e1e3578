#include "fec/fec_group.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "fec/gf256.h"
#include "util/buffer_pool.h"
#include "util/serial.h"

namespace rapidware::fec {
namespace {

/// Generator-matrix construction inverts a k x k matrix; cache codes per
/// (n, k) so steady-state encode/decode touches no linear algebra setup.
const ReedSolomonCode& cached_code(std::size_t n, std::size_t k) {
  thread_local std::map<std::pair<std::size_t, std::size_t>, ReedSolomonCode>
      cache;
  auto it = cache.find({n, k});
  if (it == cache.end()) {
    it = cache.try_emplace({n, k}, ReedSolomonCode(n, k)).first;
  }
  return it->second;
}

}  // namespace

void GroupHeader::encode_to(util::Writer& w) const {
  std::array<std::uint8_t, kWireSize> header;
  encode_to(header);
  w.raw(header);
}

void GroupHeader::encode_to(util::MutableByteSpan out) const {
  assert(out.size() >= kWireSize);
  // Little-endian, the byte order of util::Writer.
  out[0] = static_cast<std::uint8_t>(kFecMagic);
  out[1] = static_cast<std::uint8_t>(kFecMagic >> 8);
  for (int i = 0; i < 4; ++i) {
    out[2 + i] = static_cast<std::uint8_t>(group_id >> (8 * i));
  }
  out[6] = index;
  out[7] = k;
  out[8] = n;
  out[9] = static_cast<std::uint8_t>(symbol_len);
  out[10] = static_cast<std::uint8_t>(symbol_len >> 8);
}

bool looks_like_fec_packet(util::ByteSpan wire) {
  return wire.size() >= GroupHeader::kWireSize &&
         (static_cast<std::uint16_t>(wire[0]) |
          static_cast<std::uint16_t>(wire[1]) << 8) == kFecMagic;
}

GroupHeader GroupHeader::decode_from(util::Reader& r) {
  GroupHeader h;
  if (r.u16() != kFecMagic) {
    throw CodingError("GroupHeader: missing FEC magic");
  }
  h.group_id = r.u32();
  h.index = r.u8();
  h.k = r.u8();
  h.n = r.u8();
  h.symbol_len = r.u16();
  if (h.k == 0 || h.n < h.k || h.index >= h.n || h.symbol_len < 2) {
    throw CodingError("GroupHeader: invalid field values");
  }
  return h;
}

util::Bytes make_symbol(util::ByteSpan payload, std::size_t symbol_len) {
  if (payload.size() + 2 > symbol_len) {
    throw CodingError("make_symbol: payload exceeds symbol length");
  }
  util::Bytes symbol(symbol_len, 0);
  symbol[0] = static_cast<std::uint8_t>(payload.size());
  symbol[1] = static_cast<std::uint8_t>(payload.size() >> 8);
  std::copy(payload.begin(), payload.end(), symbol.begin() + 2);
  return symbol;
}

util::Bytes parse_symbol(util::ByteSpan symbol) {
  if (symbol.size() < 2) throw CodingError("parse_symbol: truncated symbol");
  const std::size_t len = static_cast<std::size_t>(symbol[0]) |
                          (static_cast<std::size_t>(symbol[1]) << 8);
  if (len + 2 > symbol.size()) {
    throw CodingError("parse_symbol: corrupt length prefix");
  }
  return util::Bytes(symbol.begin() + 2,
                     symbol.begin() + 2 + static_cast<std::ptrdiff_t>(len));
}

// ---------------------------------------------------------------------------
// GroupEncoder

GroupEncoder::GroupEncoder(std::size_t n, std::size_t k) : n_(n), k_(k) {
  if (k == 0 || k > n || n >= gf::kFieldSize) {
    throw CodingError("GroupEncoder: need 0 < k <= n < 256");
  }
  held_.reserve(k);
}

std::vector<util::Bytes> GroupEncoder::add(util::ByteSpan payload) {
  util::Bytes held = util::BufferPool::local().acquire(payload.size());
  std::copy(payload.begin(), payload.end(), held.begin());
  return add(std::move(held));
}

std::vector<util::Bytes> GroupEncoder::add(util::Bytes&& payload) {
  if (payload.size() > 0xffff - 2) {
    throw CodingError("GroupEncoder: payload too large for one symbol");
  }
  held_.push_back(std::move(payload));
  if (held_.size() < k_) return {};
  return encode_group();
}

std::vector<util::Bytes> GroupEncoder::flush() {
  if (held_.empty()) return {};
  return encode_group();
}

std::vector<util::Bytes> GroupEncoder::encode_group() {
  // A partial group (flush) becomes a short (m + parity, m) code so the
  // stream tail keeps the same parity protection.
  const std::size_t m = held_.size();
  const std::size_t parity = n_ - k_;
  const std::size_t n = m + parity;
  constexpr std::size_t kHdr = GroupHeader::kWireSize;

  std::size_t max_payload = 0;
  for (const auto& p : held_) max_payload = std::max(max_payload, p.size());
  const auto symbol_len = static_cast<std::uint16_t>(max_payload + 2);
  const std::uint32_t gid = next_group_id_++;

  util::BufferPool& pool = util::BufferPool::local();
  std::vector<util::Bytes> wire(n);
  for (std::size_t p = 0; p < parity; ++p) {
    wire[m + p] = pool.acquire(kHdr + symbol_len);
    std::memset(wire[m + p].data() + kHdr, 0, symbol_len);
  }
  // An (n = k) group has no parity and so no code: its packets are just
  // headed payloads.
  const ReedSolomonCode* code = parity > 0 ? &cached_code(n, m) : nullptr;
  for (std::size_t j = 0; j < m; ++j) {
    util::Bytes& payload = held_[j];
    wire[j] = pool.acquire(kHdr + payload.size());
    std::copy(payload.begin(), payload.end(), wire[j].begin() + kHdr);
    // Symbol j is [u16 length | payload | zero padding to symbol_len]; the
    // padding adds nothing to a GF sum, so each parity body accumulates
    // just the prefix and the payload, source-major while j is hot.
    const std::uint8_t prefix[2] = {
        static_cast<std::uint8_t>(payload.size()),
        static_cast<std::uint8_t>(payload.size() >> 8)};
    for (std::size_t p = 0; p < parity; ++p) {
      const std::uint8_t c = code->coefficient(m + p, j);
      const util::MutableByteSpan body =
          util::MutableByteSpan(wire[m + p]).subspan(kHdr);
      gf::mul_add(body.first(2), prefix, c);
      gf::mul_add(body.subspan(2, payload.size()), payload, c);
    }
    pool.release(std::move(payload));
  }
  for (std::size_t i = 0; i < n; ++i) {
    GroupHeader{gid, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(m),
                static_cast<std::uint8_t>(n), symbol_len}
        .encode_to(wire[i]);
  }
  held_.clear();
  ++groups_emitted_;
  return wire;
}

// ---------------------------------------------------------------------------
// GroupDecoder

GroupDecoder::GroupDecoder(std::size_t window,
                           std::uint32_t restart_threshold)
    : window_(window), restart_threshold_(restart_threshold) {}

std::vector<util::Bytes> GroupDecoder::add(util::ByteSpan wire_packet) {
  util::Reader r(wire_packet);
  const GroupHeader h = GroupHeader::decode_from(r);
  const util::Bytes body = r.raw(r.remaining());
  ++stats_.packets_seen;

  std::vector<util::Bytes> restart_flushed;
  if (h.group_id < next_release_) {
    // A fresh encoder's very first emission is always (group 0, symbol 0),
    // and the in-process transports neither duplicate nor reorder (the
    // deinterleaver restores order), so that pair below the cursor is an
    // unambiguous splice signature even when the id distance is small —
    // without it, a short-lived predecessor sequence (cursor <= threshold)
    // would get the whole successor's head silently dropped as stale.
    const bool splice_signature = h.group_id == 0 && h.index == 0;
    if (!splice_signature &&
        next_release_ - h.group_id <= restart_threshold_) {
      ++stats_.stale;  // genuinely late packet for a released group
      return {};
    }
    // Sequence restart: a new encoder took over the stream. Release what
    // is pending (in order), then resync to the new id sequence.
    restart_flushed = flush();
    next_release_ = h.group_id;
    newest_seen_ = h.group_id;
    ++stats_.restarts;
  }

  auto [it, created] = groups_.try_emplace(h.group_id);
  Group& g = it->second;
  if (created) {
    g.k = h.k;
    g.n = h.n;
    g.symbol_len = h.symbol_len;
    g.symbols.assign(h.n, std::nullopt);
  } else if (g.k != h.k || g.n != h.n || g.symbol_len != h.symbol_len) {
    throw CodingError("GroupDecoder: inconsistent group parameters");
  }

  if (g.symbols[h.index]) {
    ++stats_.duplicates;
    return {};
  }
  if (h.is_parity()) {
    if (body.size() != g.symbol_len) {
      throw CodingError("GroupDecoder: parity body length mismatch");
    }
  } else if (body.size() + 2 > g.symbol_len) {
    throw CodingError("GroupDecoder: data body exceeds symbol length");
  }
  g.symbols[h.index] = body;
  ++g.received;

  if (!saw_any_ || h.group_id > newest_seen_) newest_seen_ = h.group_id;
  saw_any_ = true;

  std::vector<util::Bytes> out = std::move(restart_flushed);
  release_ready(out);
  return out;
}

std::vector<util::Bytes> GroupDecoder::flush() {
  std::vector<util::Bytes> out;
  for (auto& [id, group] : groups_) release_group(id, group, out);
  groups_.clear();
  if (saw_any_) next_release_ = newest_seen_ + 1;
  return out;
}

void GroupDecoder::release_ready(std::vector<util::Bytes>& out) {
  // Groups are released strictly in id order; a complete group waits for
  // older ones (order preservation at the cost of latency). A group that is
  // entirely unseen, or incomplete, is given up on once the stream has
  // moved `window` groups past it.
  while (!groups_.empty()) {
    const bool head_expired =
        newest_seen_ > next_release_ && newest_seen_ - next_release_ > window_;
    auto it = groups_.begin();
    if (it->first > next_release_) {
      // Group ids [next_release_, head) were never seen at all.
      if (!head_expired) break;
      ++next_release_;  // give up on one wholly lost group
      continue;
    }
    Group& g = it->second;
    if (g.received < g.k && !head_expired) break;
    release_group(it->first, g, out);
    groups_.erase(it);
    ++next_release_;
  }
}

void GroupDecoder::release_group(std::uint32_t id, Group& g,
                                 std::vector<util::Bytes>& out) {
  (void)id;
  if (g.received >= g.k) {
    // Rebuild: any k of n symbols suffice.
    std::vector<std::optional<util::Bytes>> symbols(g.n);
    std::size_t data_present = 0;
    for (std::size_t i = 0; i < g.n; ++i) {
      if (!g.symbols[i]) continue;
      if (i < g.k) {
        symbols[i] = make_symbol(*g.symbols[i], g.symbol_len);
        ++data_present;
      } else {
        symbols[i] = *g.symbols[i];
      }
    }
    std::vector<util::Bytes> decoded =
        cached_code(g.n, g.k).decode(std::move(symbols));
    for (auto& symbol : decoded) out.push_back(parse_symbol(symbol));
    stats_.data_received += data_present;
    stats_.data_recovered += g.k - data_present;
    ++stats_.groups_complete;
    return;
  }
  // Short release: deliver raw data packets in index order.
  std::size_t data_present = 0;
  for (std::size_t i = 0; i < g.k; ++i) {
    if (g.symbols[i]) {
      out.push_back(*g.symbols[i]);
      ++data_present;
    }
  }
  stats_.data_received += data_present;
  stats_.data_lost += g.k - data_present;
  ++stats_.groups_incomplete;
}

}  // namespace rapidware::fec
