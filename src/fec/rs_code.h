// Systematic (n, k) Reed-Solomon erasure code over GF(2^8), built from a
// Vandermonde generator matrix transformed so its top k x k block is the
// identity (Rizzo's construction, the paper's reference [20]).
//
//   * encode: k equal-length source symbols -> n - k parity symbols; the
//     first k codeword positions are the source symbols themselves.
//   * decode: ANY k of the n symbols reconstruct the k source symbols.
//
// A "symbol" here is a whole packet (a byte vector); all symbols in one
// group must share a length.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/matrix.h"
#include "util/bytes.h"

namespace rapidware::fec {

/// Erasure-coding failures (wrong counts, mismatched lengths).
class CodingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Shared symbol validation: returns the common length of `symbols`.
/// Throws CodingError when the vector is empty or lengths differ (an empty
/// vector used to dereference symbols.front() — UB). Exposed here so tests
/// can pin the empty-input contract directly.
std::size_t checked_symbol_length(const std::vector<util::Bytes>& symbols);
}  // namespace detail

class ReedSolomonCode {
 public:
  /// Requires 0 < k <= n < 256.
  ReedSolomonCode(std::size_t n, std::size_t k);

  std::size_t n() const noexcept { return n_; }
  std::size_t k() const noexcept { return k_; }
  std::size_t parity_count() const noexcept { return n_ - k_; }

  /// Bandwidth expansion factor n/k.
  double overhead() const noexcept {
    return static_cast<double>(n_) / static_cast<double>(k_);
  }

  /// Generator-matrix entry: codeword symbol `row` (0..n-1) is the sum
  /// over j of coefficient(row, j) * source[j]. Lets a caller accumulate
  /// parity from views of its symbols instead of whole symbol vectors.
  std::uint8_t coefficient(std::size_t row, std::size_t col) const {
    return generator_.at(row, col);
  }

  /// Computes the n-k parity symbols for k equal-length source symbols.
  std::vector<util::Bytes> encode(
      const std::vector<util::Bytes>& source) const;

  /// Computes a single codeword symbol (position 0..n-1). Positions < k
  /// return the source symbol itself; higher positions synthesize just one
  /// parity symbol — what incremental repair (reliable multicast) needs.
  util::Bytes encode_one(const std::vector<util::Bytes>& source,
                         std::size_t position) const;

  /// Reconstructs the k source symbols from any k received codeword
  /// symbols. `received[i]` is codeword position i (0..n-1) or nullopt if
  /// lost. Throws CodingError if fewer than k symbols are present.
  std::vector<util::Bytes> decode(
      const std::vector<std::optional<util::Bytes>>& received) const;

  /// Rvalue overload: when all k data symbols arrived (the common case on a
  /// healthy link) the symbols are moved out instead of copied.
  std::vector<util::Bytes> decode(
      std::vector<std::optional<util::Bytes>>&& received) const;

  /// True if `received_count` symbols suffice (i.e. >= k).
  bool recoverable(std::size_t received_count) const noexcept {
    return received_count >= k_;
  }

 private:
  std::size_t n_, k_;
  Matrix generator_;  // n x k, top k x k block == identity
};

/// Single-parity XOR code: (k+1, k). The baseline the FEC literature
/// compares against; recovers exactly one lost symbol per group.
class XorParityCode {
 public:
  explicit XorParityCode(std::size_t k);

  std::size_t n() const noexcept { return k_ + 1; }
  std::size_t k() const noexcept { return k_; }

  util::Bytes encode(const std::vector<util::Bytes>& source) const;

  /// Recovers the single missing symbol, if exactly one is missing and the
  /// parity is present; otherwise returns only what was received.
  std::vector<util::Bytes> decode(
      const std::vector<std::optional<util::Bytes>>& received) const;

 private:
  std::size_t k_;
};

}  // namespace rapidware::fec
