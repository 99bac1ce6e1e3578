// Statistics helpers used by the evaluation harness: running moments, hit
// rates, and percentage formatting. (STATS histograms are obs::Histogram.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rapidware::util {

/// Welford running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // population variance
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Ratio counter for hit/delivery rates: add successes/failures, read a rate.
class RateCounter {
 public:
  void add(bool success) noexcept { (success ? hits_ : misses_)++; }
  void add_hits(std::uint64_t n) noexcept { hits_ += n; }
  void add_misses(std::uint64_t n) noexcept { misses_ += n; }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t total() const noexcept { return hits_ + misses_; }
  double rate() const noexcept {
    const std::uint64_t t = total();
    return t ? static_cast<double>(hits_) / static_cast<double>(t) : 0.0;
  }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Formats 0.9854 as "98.54%".
std::string percent(double fraction, int decimals = 2);

}  // namespace rapidware::util
