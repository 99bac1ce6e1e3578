#include "core/detachable_stream.h"

#include "obs/metrics.h"  // for the RW_OBS_ENABLED compile-out switch
#include "util/framing.h"

namespace rapidware::core {

using detail::InputState;

// ---------------------------------------------------------------------------
// DetachableInputStream

DetachableInputStream::DetachableInputStream(std::size_t capacity)
    : st_(std::make_shared<InputState>(capacity)) {}

DetachableInputStream::~DetachableInputStream() { close(); }

std::size_t DetachableInputStream::poll_read_borrow(std::size_t max,
                                                    util::SpanVisitor visit,
                                                    bool* end) {
  *end = false;
  rw::MutexLock lk(st_->mu);
  if (!st_->ring.empty()) {
    auto spans = st_->ring.read_spans();
    if (max != 0 && max < spans[0].size() + spans[1].size()) {
      if (max <= spans[0].size()) {
        spans[0] = spans[0].first(max);
        spans[1] = {};
      } else {
        spans[1] = spans[1].first(max - spans[0].size());
      }
    }
    const std::size_t consumed = visit(spans[0], spans[1]);
    if (consumed == 0) {
      throw StreamError("DIS::poll_read_borrow: visitor made no progress");
    }
    if (consumed > spans[0].size() + spans[1].size()) {
      throw StreamError("DIS::poll_read_borrow: visitor over-consumed");
    }
    st_->ring.consume(consumed);
    st_->bytes_out += consumed;
    st_->fire_writable();
    return consumed;
  }
  if (st_->write_closed || st_->soft_eof || st_->reader_closed) {
    st_->soft_eof = false;  // a detach EOF ends one epoch, reported once
    *end = true;
    return 0;
  }
  // Empty but open: report would-block, arming the watcher so the next
  // arrival — or EOF/splice — re-drives the owner.
  if (st_->read_sched != nullptr) st_->read_armed = true;
  return 0;
}

void DetachableInputStream::set_read_scheduler(Scheduler* sched) {
  rw::MutexLock lk(st_->mu);
  st_->read_sched = sched;
  if (sched == nullptr) st_->read_armed = false;
}

std::size_t DetachableInputStream::available() const {
  rw::MutexLock lk(st_->mu);
  return st_->ring.size();
}

std::size_t DetachableInputStream::ring_bytes() const {
  rw::MutexLock lk(st_->mu);
  return st_->ring.storage();
}

bool DetachableInputStream::connected() const {
  rw::MutexLock lk(st_->mu);
  return st_->connected;
}

void DetachableInputStream::pause() {
  DetachableOutputStream* src = nullptr;
  {
    rw::MutexLock lk(st_->mu);
    src = st_->source;
  }
  if (src == nullptr) throw StreamError("DIS::pause: not connected");
  src->pause();
}

void DetachableInputStream::reconnect(DetachableOutputStream& dos) {
  dos.reconnect(*this);
}

void DetachableInputStream::close() {
  rw::MutexLock lk(st_->mu);
  st_->reader_closed = true;
  st_->connected = false;
  st_->fire_readable();
  st_->fire_writable();
}

void DetachableInputStream::mark_soft_eof() {
  rw::MutexLock lk(st_->mu);
  st_->soft_eof = true;
  st_->fire_readable();  // the owner must drain and observe EOF
}

std::uint64_t DetachableInputStream::bytes_received() const {
  rw::MutexLock lk(st_->mu);
  return st_->bytes_in;
}

std::uint64_t DetachableInputStream::bytes_delivered() const {
  rw::MutexLock lk(st_->mu);
  return st_->bytes_out;
}

// ---------------------------------------------------------------------------
// DetachableOutputStream

DetachableOutputStream::~DetachableOutputStream() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw (C++ Core Guidelines C.36).
  }
}

bool DetachableOutputStream::try_write_vec(
    std::span<const util::ByteSpan> segments) {
  std::size_t total = 0;
  for (const util::ByteSpan seg : segments) total += seg.size();
  rw::MutexLock lk(mu_);
  if (closed_) throw BrokenPipe("DOS::try_write: stream closed");
  if (!connected_ || swflag_) {
    // Mid-splice or never connected: arm at this DOS — there is no sink
    // whose reader could fire us; reconnect()/close() will.
    if (write_sched_ != nullptr) write_armed_ = true;
    return false;
  }
  const std::shared_ptr<InputState>& st = sink_;
  // Lock order: DOS::mu_ before InputState::mu (always). Holding mu_ for
  // the whole transaction keeps pause() out until every segment landed.
  rw::MutexLock slk(st->mu);
  if (st->reader_closed) {
    throw BrokenPipe("DOS::try_write: reader closed the stream");
  }
  if (st->write_closed) {
    throw BrokenPipe("DOS::try_write: stream closed during write");
  }
  if (total > st->ring.capacity()) {
    // A frame larger than the ring can never fit beside other bytes: wait
    // for the reader to drain the ring, then grow it once to the frame's
    // size so the frame still lands whole (never torn across a splice).
    if (total > util::kMaxFrameSize + util::kFrameHeaderSize) {
      throw StreamError("DOS::try_write_vec: write larger than a frame");
    }
    if (st->ring.empty()) st->ring.grow(total);
  }
  if (st->ring.free_space() < total) {
    if (st->write_sched != nullptr) st->write_armed = true;
    return false;
  }
  for (const util::ByteSpan seg : segments) {
    st->ring.write(seg);
    st->bytes_in += seg.size();
  }
#if RW_OBS_ENABLED
  bytes_sent_.fetch_add(total, std::memory_order_relaxed);
#endif
  st->fire_readable();
  return true;
}

std::size_t DetachableOutputStream::try_write_some(util::ByteSpan in) {
  rw::MutexLock lk(mu_);
  if (closed_) throw BrokenPipe("DOS::try_write: stream closed");
  if (!connected_ || swflag_) {
    if (write_sched_ != nullptr) write_armed_ = true;
    return 0;
  }
  const std::shared_ptr<InputState>& st = sink_;
  rw::MutexLock slk(st->mu);
  if (st->reader_closed) {
    throw BrokenPipe("DOS::try_write: reader closed the stream");
  }
  if (st->write_closed) {
    throw BrokenPipe("DOS::try_write: stream closed during write");
  }
  const std::size_t n = st->ring.write(in);
  if (n > 0) {
    st->bytes_in += n;
#if RW_OBS_ENABLED
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
#endif
    st->fire_readable();
  }
  if (n < in.size() && st->write_sched != nullptr) st->write_armed = true;
  return n;
}

void DetachableOutputStream::set_write_scheduler(Scheduler* sched) {
  rw::MutexLock lk(mu_);
  write_sched_ = sched;
  if (sched == nullptr) write_armed_ = false;
  if (sink_) {
    rw::MutexLock slk(sink_->mu);
    sink_->write_sched = sched;
    if (sched == nullptr) sink_->write_armed = false;
  }
}

void DetachableOutputStream::pause() {
  rw::MutexLock lk(mu_);
  if (closed_) throw StreamError("DOS::pause: stream closed");
  if (!connected_) {
    if (swflag_) return;  // already paused: idempotent
    throw StreamError("DOS::pause: not connected");
  }
  // Every try_write_* holds mu_ for its whole transaction, so no write is
  // in flight here, and every later one sees swflag_ and arms at this DOS,
  // where reconnect() or close() fires it.
  swflag_ = true;
  ++pauses_;
  connected_ = false;
  const std::shared_ptr<InputState> st = std::move(sink_);
  // Lock order: DOS::mu_ before InputState::mu (always). A writer armed on
  // the full ring re-polls and re-arms at this DOS.
  rw::MutexLock slk(st->mu);
  st->fire_writable();
  st->detach_source();
}

void DetachableOutputStream::reconnect(DetachableInputStream& dis) {
  rw::MutexLock lk(mu_);
  if (closed_) throw StreamError("DOS::reconnect: stream closed");
  if (connected_) throw StreamError("DOS::reconnect: already connected");
  auto st = dis.st_;
  {
    rw::MutexLock slk(st->mu);
    if (st->connected) {
      throw StreamError("DOS::reconnect: sink already connected");
    }
    if (st->reader_closed) {
      throw StreamError("DOS::reconnect: sink reader closed");
    }
    if (st->soft_eof) {
      throw DetachEofPending(
          "DOS::reconnect: sink reader has not read its detach EOF");
    }
    st->source = this;
    st->connected = true;
    st->write_closed = false;
    // The writable watcher follows this DOS to its new sink; an armed
    // reader on the new sink may now have data (or a source to wait on)
    // and is re-driven to find out.
    st->write_sched = write_sched_;
    st->fire_readable();
    st->fire_writable();
  }
  sink_ = st;
  connected_ = true;
  swflag_ = false;
  // A hosted writer that armed while we were detached can write again.
  fire_write_ready_locked();
}

void DetachableOutputStream::close() {
  std::shared_ptr<InputState> st;
  {
    rw::MutexLock lk(mu_);
    if (closed_) return;
    closed_ = true;
    st = sink_;
    sink_.reset();
    connected_ = false;
    // A hosted writer armed at this DOS must observe BrokenPipe, not park.
    fire_write_ready_locked();
  }
  if (st) {
    rw::MutexLock slk(st->mu);
    st->write_closed = true;
    // Fire before detach_source() uninstalls the writable watcher: a
    // writer armed on the full ring must retry and observe BrokenPipe.
    st->fire_readable();
    st->fire_writable();
    st->detach_source();
  }
}

bool DetachableOutputStream::connected() const {
  rw::MutexLock lk(mu_);
  return connected_;
}

std::uint64_t DetachableOutputStream::bytes_sent() const noexcept {
  return bytes_sent_.load(std::memory_order_relaxed);
}

std::uint64_t DetachableOutputStream::pauses() const {
  rw::MutexLock lk(mu_);
  return pauses_;
}

void connect(DetachableOutputStream& dos, DetachableInputStream& dis) {
  dos.connect(dis);
}

}  // namespace rapidware::core
