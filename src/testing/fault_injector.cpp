#include "testing/fault_injector.h"

#include <chrono>
#include <thread>

#include "core/detachable_stream.h"

namespace rapidware::testing {

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : rng_(seed), plan_(plan), seed_(seed) {}

bool FaultInjector::roll(double p) {
  if (p <= 0.0) return false;
  rw::MutexLock lk(mu_);
  return rng_.chance(p);
}

std::size_t FaultInjector::cut(std::size_t n) {
  if (n <= 1) return n;
  rw::MutexLock lk(mu_);
  return static_cast<std::size_t>(rng_.next_below(n)) + 1;
}

void FaultInjector::maybe_delay() {
  if (!roll(plan_.delay_p)) return;
  delays_.fetch_add(1, std::memory_order_relaxed);
  std::int64_t sleep_us = 0;
  {
    rw::MutexLock lk(mu_);
    // Mostly yields; occasionally a real (bounded) sleep so a thread loses
    // the CPU long enough for its peers to race ahead.
    if (plan_.max_delay_us > 0 && rng_.chance(0.25)) {
      sleep_us = rng_.next_range(1, plan_.max_delay_us);
    }
  }
  if (sleep_us > 0) {
    sim_clock_.advance(sleep_us);
    if (plan_.wall_delays) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    } else {
      std::this_thread::yield();
    }
  } else {
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// FaultyByteSource

FaultyByteSource::FaultyByteSource(std::shared_ptr<util::ByteSource> inner,
                                   std::shared_ptr<FaultInjector> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {}

std::size_t FaultyByteSource::read_some(util::MutableByteSpan out) {
  faults_->maybe_delay();
  if (faults_->roll(faults_->plan().throw_p)) {
    faults_->throws_.fetch_add(1, std::memory_order_relaxed);
    throw core::StreamError("FaultyByteSource: injected read failure");
  }
  util::MutableByteSpan window = out;
  if (!out.empty() && faults_->roll(faults_->plan().short_read_p)) {
    faults_->short_reads_.fetch_add(1, std::memory_order_relaxed);
    window = out.first(faults_->cut(out.size()));
  }
  return inner_->read_some(window);
}

std::size_t FaultyByteSource::poll_read_borrow(std::size_t max,
                                               util::SpanVisitor visit,
                                               bool* end) {
  faults_->maybe_delay();
  if (faults_->roll(faults_->plan().throw_p)) {
    faults_->throws_.fetch_add(1, std::memory_order_relaxed);
    throw core::StreamError("FaultyByteSource: injected read failure");
  }
  if (max != 0 && faults_->roll(faults_->plan().short_read_p)) {
    faults_->short_reads_.fetch_add(1, std::memory_order_relaxed);
    max = faults_->cut(max);
  }
  return inner_->poll_read_borrow(max, visit, end);
}

// ---------------------------------------------------------------------------
// FaultyByteSink

FaultyByteSink::FaultyByteSink(std::shared_ptr<util::ByteSink> inner,
                               std::shared_ptr<FaultInjector> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {}

void FaultyByteSink::write(util::ByteSpan in) {
  faults_->maybe_delay();
  if (faults_->roll(faults_->plan().throw_p)) {
    faults_->throws_.fetch_add(1, std::memory_order_relaxed);
    throw core::BrokenPipe("FaultyByteSink: injected write failure");
  }
  if (in.size() > 1 && faults_->roll(faults_->plan().fragment_write_p)) {
    faults_->fragmented_writes_.fetch_add(1, std::memory_order_relaxed);
    while (!in.empty()) {
      const std::size_t n = faults_->cut(in.size());
      inner_->write(in.first(n));
      in = in.subspan(n);
      if (!in.empty()) faults_->maybe_delay();
    }
    return;
  }
  inner_->write(in);
}

std::size_t FaultyByteSink::try_write_some(util::ByteSpan in) {
  faults_->maybe_delay();
  if (faults_->roll(faults_->plan().throw_p)) {
    faults_->throws_.fetch_add(1, std::memory_order_relaxed);
    throw core::BrokenPipe("FaultyByteSink: injected write failure");
  }
  if (in.size() <= 1 || !faults_->roll(faults_->plan().fragment_write_p)) {
    return inner_->try_write_some(in);
  }
  // Fragments go in until the inner sink comes up short: then its watcher
  // is armed and the caller parks the rest, as for any short write.
  faults_->fragmented_writes_.fetch_add(1, std::memory_order_relaxed);
  std::size_t done = 0;
  while (done < in.size()) {
    const std::size_t n = faults_->cut(in.size() - done);
    const std::size_t w = inner_->try_write_some(in.subspan(done, n));
    done += w;
    if (w < n) break;
    if (done < in.size()) faults_->maybe_delay();
  }
  return done;
}

void FaultyByteSink::flush() {
  faults_->maybe_delay();
  inner_->flush();
}

// ---------------------------------------------------------------------------
// LinkFaults

LinkFaults::LinkFaults(std::shared_ptr<net::LossModel> inner,
                       std::shared_ptr<FaultInjector> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {}

bool LinkFaults::drop(util::Rng& rng) {
  {
    rw::MutexLock lk(mu_);
    if (outage_left_ > 0) {
      --outage_left_;
      faults_->link_drops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (down_) {
      faults_->link_drops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (faults_->roll(faults_->plan().link_outage_p)) {
    rw::MutexLock lk(mu_);
    outage_left_ = faults_->plan().link_outage_packets;
  }
  if (faults_->roll(faults_->plan().link_drop_p)) {
    faults_->link_drops_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return inner_->drop(rng);
}

double LinkFaults::average_loss() const { return inner_->average_loss(); }

void LinkFaults::set_average_loss(double p) { inner_->set_average_loss(p); }

void LinkFaults::set_down(bool down) {
  rw::MutexLock lk(mu_);
  down_ = down;
}

}  // namespace rapidware::testing
