// Delivery accounting for the chain benches (bench_chain_overhead,
// bench_many_chains, bench_worker_scaling). A counting sink stores nothing,
// so a row prices the chain, not its harness. The chains hosted on one
// worker share that worker's counting sink, so no counter bounces between
// cores, and the main thread sleeps on a completion signal with a deadline
// instead of spinning on a shared atomic while the workers need every core.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "util/bytes.h"

namespace rwbench {

/// A count of arrivals the main thread waits for, with a deadline.
class Countdown {
 public:
  explicit Countdown(std::size_t count) : count_(count) {}

  void arrive() {
    std::lock_guard<std::mutex> lk(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  /// True when the last arrival came before `deadline`.
  bool wait_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_until(lk, deadline, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_;
};

/// Counts the deliveries of the chains on one worker, never storing them,
/// and arrives at a Countdown when its count reaches a mark.
class CountingPacketSink final : public rapidware::core::PacketSink {
 public:
  /// Arrive at `signal` once, on the `at`-th delivery. Register marks
  /// before any chain delivers here.
  void arrive_at(std::uint64_t at, Countdown& signal) {
    marks_.push_back({at, &signal});
  }

  void deliver(rapidware::util::ByteSpan packet) override {
    const std::uint64_t n =
        packets_.fetch_add(1, std::memory_order_relaxed) + 1;
    bytes_.fetch_add(packet.size(), std::memory_order_relaxed);
    for (const Mark& mark : marks_) {
      if (n == mark.at) mark.signal->arrive();
    }
  }

  std::uint64_t packets() const {
    return packets_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  struct Mark {
    std::uint64_t at;
    Countdown* signal;
  };
  std::vector<Mark> marks_;
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// How long a row may take before its missing packets count as lost.
constexpr std::chrono::seconds kRowDeadline{120};

/// Waits for `signal`. A row whose packets are still missing at the
/// deadline has lost some, and the chains still waiting for them cannot be
/// torn down, so the bench exits here, naming the row.
inline void await_or_exit(Countdown& signal, const std::string& row) {
  if (!signal.wait_until(std::chrono::steady_clock::now() + kRowDeadline)) {
    std::fprintf(stderr, "FAIL: %s: packets still missing after %lld s\n",
                 row.c_str(), static_cast<long long>(kRowDeadline.count()));
    std::fflush(stdout);
    std::_Exit(EXIT_FAILURE);
  }
}

/// Conservation: true when the row delivered exactly the packets and bytes
/// it sent; otherwise reports the row as failed.
inline bool conserved(const std::string& row, std::uint64_t sent,
                      std::uint64_t sent_bytes, std::uint64_t delivered,
                      std::uint64_t delivered_bytes) {
  if (delivered == sent && delivered_bytes == sent_bytes) return true;
  std::fprintf(stderr,
               "FAIL: %s delivered %llu packets (%llu bytes) of %llu sent "
               "(%llu bytes)\n",
               row.c_str(), static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(delivered_bytes),
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(sent_bytes));
  return false;
}

}  // namespace rwbench
