#include "core/endpoint.h"

#include <chrono>

#include "util/buffer_pool.h"
#include "util/frame_reader.h"
#include "util/framing.h"

namespace rapidware::core {

PacketReaderEndpoint::PacketReaderEndpoint(std::string name,
                                           std::shared_ptr<PacketSource> source)
    : Filter(std::move(name)), source_(std::move(source)) {}

void PacketReaderEndpoint::event_start() {
  ev_parked_.reset();
  source_->set_scheduler(event_scheduler());
}

void PacketReaderEndpoint::event_stop() {
  source_->set_scheduler(nullptr);
  if (ev_parked_) {
    util::BufferPool::local().release(std::move(*ev_parked_));
    ev_parked_.reset();
  }
}

Filter::Drive PacketReaderEndpoint::on_ready() {
  // Backpressure first: a parked payload must reach the ring before any new
  // packet, or frames would reorder.
  if (ev_parked_) {
    if (!util::try_write_frame(dos(), *ev_parked_)) return Drive::kIdle;
    util::BufferPool::local().release(std::move(*ev_parked_));
    ev_parked_.reset();
  }
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool finished = false;
    auto packet = source_->poll_packet(&finished);
    // Exhausted: kDone without closing the DOS, so downstream stays
    // connected (removal protocol).
    if (!packet) return finished ? Drive::kDone : Drive::kIdle;
    // Count before the frame becomes observable downstream: anyone who saw
    // the packet must also see it in the metric (STATS is a faithful view).
    packets_.fetch_add(1, std::memory_order_relaxed);
    if (!util::try_write_frame(dos(), *packet)) {
      ev_parked_ = std::move(packet);
      return Drive::kIdle;
    }
    // The source's buffer is dead here; recycle it so pool-aware producers
    // (and downstream FrameReaders) stop hitting the allocator.
    util::BufferPool::local().release(std::move(*packet));
  }
  return Drive::kMore;
}

void PacketReaderEndpoint::register_metrics(obs::Scope scope) {
  Filter::register_metrics(scope);
  scope.callback("packets",
                 [this] { return static_cast<double>(packets_read()); });
}

PacketWriterEndpoint::PacketWriterEndpoint(std::string name,
                                           std::shared_ptr<PacketSink> sink,
                                           std::size_t buffer_capacity)
    : Filter(std::move(name), buffer_capacity), sink_(std::move(sink)) {}

void PacketWriterEndpoint::event_start() {
  ev_frames_ = std::make_unique<util::FrameReader>(dis());
  ev_ended_ = false;
}

void PacketWriterEndpoint::event_stop() { ev_frames_.reset(); }

Filter::Drive PacketWriterEndpoint::on_ready() {
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool end = false;
    auto packet = ev_frames_->poll(&end);
    if (!packet) {
      if (!end) return Drive::kIdle;
      if (!ev_ended_) {
        ev_ended_ = true;
        sink_->on_end();
      }
      return Drive::kDone;
    }
    // Count before delivery: a caller woken by the sink (e.g. wait_for(n))
    // must never read a metric that lags what the sink already handed out.
    packets_.fetch_add(1, std::memory_order_relaxed);
    try {
      sink_->deliver(*packet);
    } catch (...) {
      // The sink did not take the packet: STATS must not report a hop
      // delivering what it lost. The drive's catch then ends the run.
      packets_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    util::BufferPool::local().release(std::move(*packet));
  }
  return Drive::kMore;
}

void PacketWriterEndpoint::register_metrics(obs::Scope scope) {
  Filter::register_metrics(scope);
  scope.callback("packets",
                 [this] { return static_cast<double>(packets_written()); });
}

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
