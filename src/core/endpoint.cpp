#include "core/endpoint.h"

#include <chrono>

namespace rapidware::core {

PacketReaderEndpoint::PacketReaderEndpoint(std::string name,
                                           std::shared_ptr<PacketSource> source)
    : PacketFilter(std::move(name)), source_(std::move(source)) {}

void PacketReaderEndpoint::event_start() {
  PacketFilter::event_start();
  source_->set_scheduler(event_scheduler());
}

void PacketReaderEndpoint::event_stop() {
  source_->set_scheduler(nullptr);
  PacketFilter::event_stop();
}

PacketWriterEndpoint::PacketWriterEndpoint(std::string name,
                                           std::shared_ptr<PacketSink> sink,
                                           std::size_t buffer_capacity)
    : PacketFilter(std::move(name), buffer_capacity), sink_(std::move(sink)) {}

std::optional<util::Bytes> QueuePacketSource::poll_packet(bool* finished) {
  rw::MutexLock lk(mu_);
  *finished = false;
  if (!queue_.empty()) {
    util::Bytes packet = std::move(queue_.front());
    queue_.pop_front();
    return packet;
  }
  if (finished_) {
    *finished = true;
    return std::nullopt;
  }
  // Would-block: arm the one-shot wakeup. push()/finish() fire it under
  // this same mutex, so the arm/fire pair serializes — no lost wake-up.
  if (sched_) sched_armed_ = true;
  return std::nullopt;
}

void QueuePacketSource::set_scheduler(Scheduler* sched) {
  rw::MutexLock lk(mu_);
  sched_ = sched;
  if (sched == nullptr) sched_armed_ = false;
}

void QueuePacketSource::fire_readable_locked() {
  mu_.assert_held();
  if (sched_ != nullptr && sched_armed_) {
    sched_armed_ = false;
    // Contract: on_readable only posts to a worker queue; it must not call
    // back into this source (mu_ is held).
    sched_->on_readable();
  }
}

void QueuePacketSource::push(util::Bytes packet) {
  rw::MutexLock lk(mu_);
  queue_.push_back(std::move(packet));
  fire_readable_locked();
}

void QueuePacketSource::finish() {
  rw::MutexLock lk(mu_);
  finished_ = true;
  fire_readable_locked();
}

void CollectingPacketSink::deliver(util::ByteSpan packet) {
  rw::MutexLock lk(mu_);
  packets_.emplace_back(packet.begin(), packet.end());
  // wait_for(n) callers may be parked; skip the notify when none are.
  if (waiters_ > 0) cv_.notify_all();
}

void CollectingPacketSink::on_end() {
  {
    rw::MutexLock lk(mu_);
    ended_ = true;
  }
  cv_.notify_all();
}

bool CollectingPacketSink::wait_for(std::size_t n, std::int64_t timeout_ms) {
  rw::MutexLock lk(mu_);
  ++waiters_;
  const bool ok = cv_.wait_for(mu_, std::chrono::milliseconds(timeout_ms),
                               [this, n] {
                                 mu_.assert_held();
                                 return packets_.size() >= n || ended_;
                               }) &&
                  packets_.size() >= n;
  --waiters_;
  return ok;
}

bool CollectingPacketSink::wait_end(std::int64_t timeout_ms) {
  rw::MutexLock lk(mu_);
  ++waiters_;
  const bool ok =
      cv_.wait_for(mu_, std::chrono::milliseconds(timeout_ms), [this] {
        mu_.assert_held();
        return ended_;
      });
  --waiters_;
  return ok;
}

std::vector<util::Bytes> CollectingPacketSink::packets() const {
  rw::MutexLock lk(mu_);
  return packets_;
}

std::size_t CollectingPacketSink::count() const {
  rw::MutexLock lk(mu_);
  return packets_.size();
}

bool CollectingPacketSink::ended() const {
  rw::MutexLock lk(mu_);
  return ended_;
}

}  // namespace rapidware::core
