#include "testing/fault_injector.h"

#include <chrono>
#include <thread>

namespace rapidware::testing {

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : rng_(seed), plan_(plan), seed_(seed) {}

bool FaultInjector::roll(double p) {
  if (p <= 0.0) return false;
  rw::MutexLock lk(mu_);
  return rng_.chance(p);
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
  if (sleep_us > 0 && plan_.wall_delays) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  } else {
    std::this_thread::yield();
  }
}

bool FaultInjector::inject_throw() {
  if (!roll(plan_.throw_p)) return false;
  throws_.fetch_add(1, std::memory_order_relaxed);
  return true;
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
