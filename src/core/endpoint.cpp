#include "core/endpoint.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

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
    sink_->deliver(*packet);
    util::BufferPool::local().release(std::move(*packet));
  }
  return Drive::kMore;
}

void PacketWriterEndpoint::register_metrics(obs::Scope scope) {
  Filter::register_metrics(scope);
  scope.callback("packets",
                 [this] { return static_cast<double>(packets_written()); });
}

ByteReaderEndpoint::ByteReaderEndpoint(std::string name,
                                       std::shared_ptr<util::ByteSource> source,
                                       std::size_t chunk)
    : Filter(std::move(name)),
      source_(std::move(source)),
      chunk_(chunk) {
  if (!source_->pollable()) {
    throw std::invalid_argument("ByteReaderEndpoint " + this->name() +
                                ": source is not pollable (a worker drive "
                                "cannot block in read_some)");
  }
}

void ByteReaderEndpoint::event_start() {
  ev_watch_.bind(event_scheduler());
  source_->set_ready_watcher(&ev_watch_);
  ev_buf_.clear();
  ev_off_ = 0;
  ev_parked_ = false;
}

void ByteReaderEndpoint::event_stop() {
  source_->set_ready_watcher(nullptr);
  util::BufferPool::local().release(std::move(ev_buf_));
  ev_off_ = 0;
  ev_parked_ = false;
}

bool ByteReaderEndpoint::flush_ev_parked() {
  if (!ev_parked_) return true;
  const std::size_t w =
      dos().try_write_some(util::ByteSpan(ev_buf_).subspan(ev_off_));
  ev_off_ += w;
  if (ev_off_ < ev_buf_.size()) return false;  // writable watcher armed
  ev_parked_ = false;
  ev_off_ = 0;
  return true;
}

Filter::Drive ByteReaderEndpoint::on_ready() {
  // Backpressure first: parked bytes must reach the ring before any new
  // read, or the stream would reorder.
  if (!flush_ev_parked()) return Drive::kIdle;
  if (ev_buf_.capacity() == 0) {
    // Lazily acquired on the loop thread so the buffer cycles through the
    // worker's own arena, not the control thread's.
    ev_buf_ = util::BufferPool::local().acquire(chunk_);
  }
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool end = false;
    ev_buf_.resize(chunk_);
    const std::size_t n = source_->poll_read_borrow(
        chunk_,
        [this](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
          std::memcpy(ev_buf_.data(), a.data(), a.size());
          if (!b.empty()) {
            std::memcpy(ev_buf_.data() + a.size(), b.data(), b.size());
          }
          return a.size() + b.size();
        },
        &end);
    if (n == 0) {
      ev_buf_.clear();
      // Exhausted: kDone without closing the DOS (removal protocol);
      // empty-and-open armed the watcher.
      return end ? Drive::kDone : Drive::kIdle;
    }
    ev_buf_.resize(n);
    const std::size_t w = dos().try_write_some(ev_buf_);
    if (w < n) {
      ev_parked_ = true;
      ev_off_ = w;
      return Drive::kIdle;  // writable watcher armed by the short write
    }
  }
  return Drive::kMore;
}

ByteWriterEndpoint::ByteWriterEndpoint(std::string name,
                                       std::shared_ptr<util::ByteSink> sink,
                                       std::size_t buffer_capacity)
    : Filter(std::move(name), buffer_capacity), sink_(std::move(sink)) {
  if (!sink_->pollable()) {
    throw std::invalid_argument("ByteWriterEndpoint " + this->name() +
                                ": sink is not pollable (a worker drive "
                                "cannot block in write)");
  }
}

namespace {
constexpr std::size_t kWriterChunk = 4096;
}  // namespace

void ByteWriterEndpoint::event_start() {
  ev_watch_.bind(event_scheduler());
  sink_->set_ready_watcher(&ev_watch_);
  ev_buf_.clear();
  ev_off_ = 0;
  ev_parked_ = false;
}

void ByteWriterEndpoint::event_stop() {
  sink_->set_ready_watcher(nullptr);
  util::BufferPool::local().release(std::move(ev_buf_));
  ev_off_ = 0;
  ev_parked_ = false;
}

bool ByteWriterEndpoint::flush_ev_parked() {
  if (!ev_parked_) return true;
  const std::size_t w =
      sink_->try_write_some(util::ByteSpan(ev_buf_).subspan(ev_off_));
  ev_off_ += w;
  if (ev_off_ < ev_buf_.size()) return false;  // sink watcher armed
  ev_parked_ = false;
  ev_off_ = 0;
  return true;
}

Filter::Drive ByteWriterEndpoint::on_ready() {
  if (!flush_ev_parked()) return Drive::kIdle;
  if (ev_buf_.capacity() == 0) {
    ev_buf_ = util::BufferPool::local().acquire(kWriterChunk);
  }
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool end = false;
    ev_buf_.resize(kWriterChunk);
    const std::size_t n = dis().poll_read_borrow(
        kWriterChunk,
        [this](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
          std::memcpy(ev_buf_.data(), a.data(), a.size());
          if (!b.empty()) {
            std::memcpy(ev_buf_.data() + a.size(), b.data(), b.size());
          }
          return a.size() + b.size();
        },
        &end);
    if (n == 0) {
      ev_buf_.clear();
      if (!end) return Drive::kIdle;  // readable watcher armed
      sink_->flush();
      return Drive::kDone;
    }
    ev_buf_.resize(n);
    const std::size_t w = sink_->try_write_some(ev_buf_);
    if (w < n) {
      ev_parked_ = true;
      ev_off_ = w;
      return Drive::kIdle;  // sink's ready watcher armed by the short write
    }
  }
  return Drive::kMore;
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
  // this same mutex, so the arm/fire pair serializes — no lost wakeups.
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
