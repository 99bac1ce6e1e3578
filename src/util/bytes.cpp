#include "util/bytes.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace rapidware::util {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(ByteSpan b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string to_hex(ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t v : b) {
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xf]);
  }
  return out;
}

ByteRing::ByteRing(std::size_t capacity) : bound_(capacity) {}

void ByteRing::reserve(std::size_t need) {
  const std::size_t storage =
      std::min(bound_, std::max(kMinStorage, std::bit_ceil(need)));
  auto next = std::make_unique_for_overwrite<std::uint8_t[]>(storage);
  peek(MutableByteSpan(next.get(), size_));
  buf_ = std::move(next);
  storage_ = storage;
  head_ = 0;
}

std::size_t ByteRing::write(ByteSpan in) {
  const std::size_t n = std::min(in.size(), free_space());
  if (n == 0) return 0;  // empty span may carry data() == nullptr (UB in memcpy)
  if (size_ + n > storage_) reserve(size_ + n);
  const std::size_t tail = (head_ + size_) % storage_;
  const std::size_t first = std::min(n, storage_ - tail);
  std::memcpy(buf_.get() + tail, in.data(), first);
  if (n > first) std::memcpy(buf_.get(), in.data() + first, n - first);
  size_ += n;
  return n;
}

std::size_t ByteRing::write(std::span<const ByteSpan> segments) {
  std::size_t total = 0;
  for (const ByteSpan seg : segments) {
    const std::size_t n = write(seg);
    total += n;
    if (n < seg.size()) break;  // ring full mid-segment
  }
  return total;
}

std::size_t ByteRing::read(MutableByteSpan out) {
  const std::size_t n = peek(out);
  consume(n);
  return n;
}

std::size_t ByteRing::peek(MutableByteSpan out) const {
  const std::size_t n = std::min(out.size(), size_);
  if (n == 0) return 0;  // also covers a ring with no storage yet
  const std::size_t first = std::min(n, storage_ - head_);
  std::memcpy(out.data(), buf_.get() + head_, first);
  if (n > first) std::memcpy(out.data() + first, buf_.get(), n - first);
  return n;
}

std::array<ByteSpan, 2> ByteRing::read_spans() const noexcept {
  const std::size_t first = std::min(size_, storage_ - head_);
  return {ByteSpan(buf_.get() + head_, first),
          ByteSpan(buf_.get(), size_ - first)};
}

void ByteRing::consume(std::size_t n) noexcept {
  if (n == 0) return;  // a ring with no storage yet has nothing to wrap by
  head_ = (head_ + n) % storage_;
  size_ -= n;
}

void ByteRing::clear() noexcept {
  head_ = 0;
  size_ = 0;
}

void ByteRing::grow(std::size_t capacity) {
  if (size_ != 0) throw std::logic_error("ByteRing::grow: ring not empty");
  bound_ = std::max(bound_, capacity);
}

}  // namespace rapidware::util
