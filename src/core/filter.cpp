#include "core/filter.h"

#include <cstring>

#include "core/event_loop.h"
#include "util/buffer_pool.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/lock_rank.h"
#include "util/logging.h"

namespace rapidware::core {

namespace detail {

/// Shared hosting state of one filter run. Tasks capture a shared_ptr, so
/// a late readiness fire or timer can never dangle: `alive` flips false in
/// Filter::finish() ON the loop thread, and because all of a core's tasks
/// serialize on that one thread, any task posted after the final drive
/// observes it and returns without touching the filter.
struct FilterEventCore final : Scheduler,
                               std::enable_shared_from_this<FilterEventCore> {
  FilterEventCore(Filter* filter, EventLoop* loop)
      : filter(filter), loop(loop) {}

  /// Coalescing re-drive: at most one task in flight per core. The flag
  /// clears at task START, so a fire during a drive posts a fresh task —
  /// the armed-under-the-stream-lock protocol makes lost wakeups
  /// impossible.
  void schedule() {
    if (scheduled.exchange(true, std::memory_order_acq_rel)) return;
    loop->post([self = shared_from_this()] {
      self->scheduled.store(false, std::memory_order_release);
      if (!self->alive.load(std::memory_order_acquire)) return;
      self->filter->drive(*self);
    });
  }

  // Fired under a stream lock (core::Scheduler contract): post only.
  void on_readable() override { schedule(); }
  void on_writable() override { schedule(); }

  Filter* const filter;
  EventLoop* const loop;
  std::atomic<bool> alive{true};
  std::atomic<bool> scheduled{false};

  rw::Mutex mu{"core/filter_event", rw::lockrank::kFilterEvent};
  rw::CondVar done_cv;
  bool done RW_GUARDED_BY(mu) = false;  // the run's join()/destructor gate
};

}  // namespace detail

Filter::Filter(std::string name, std::size_t buffer_capacity)
    : name_(std::move(name)),
      dis_(std::make_unique<DetachableInputStream>(buffer_capacity)),
      dos_(std::make_unique<DetachableOutputStream>()) {}

Filter::~Filter() {
  // Finish a run the owner forgot to: closing the input ends a drive that
  // waits for data, closing the output turns a write parked on
  // backpressure into BrokenPipe, so the final drive reaches Drive::kDone.
  dis_->close();
  dos_->close();
  join();
}

void Filter::start(EventLoop& loop) {
  if (running()) throw StreamError("Filter::start: already running");
  // A previous run is fully finished here: its late tasks see alive=false.
  event_core_ = std::make_shared<detail::FilterEventCore>(this, &loop);
  running_.store(true, std::memory_order_release);
  event_start();
  dis_->set_read_scheduler(event_core_.get());
  dos_->set_write_scheduler(event_core_.get());
  event_core_->schedule();  // input (or an EOF) may already be waiting
}

void Filter::join() {
  if (const std::shared_ptr<detail::FilterEventCore> core = event_core_) {
    rw::MutexLock lk(core->mu);
    core->done_cv.wait(core->mu, [c = core.get()] {
      c->mu.assert_held();
      return c->done;
    });
  }
}

Scheduler* Filter::event_scheduler() const noexcept {
  return event_core_.get();
}

util::Micros Filter::loop_now() const {
  return event_core_->loop->clock().now();
}

void Filter::redrive_after(util::Micros delay) {
  // Fires on the loop thread between task batches; a run that finished
  // meanwhile makes the re-drive a no-op (alive=false).
  event_core_->loop->clock().schedule_after(
      delay, [core = event_core_] { core->schedule(); });
}

void Filter::drive(detail::FilterEventCore& core) {
  Drive drive;
  try {
    drive = on_ready();
  } catch (const BrokenPipe&) {
    // Downstream went away; normal during teardown. Close the input so
    // upstream writers cannot wedge against a ring nobody will drain.
    dis_->close();
    drive = Drive::kDone;
  } catch (const std::exception& e) {
    // A dead stage must not wedge the chain either: closing its input
    // turns upstream backpressure into BrokenPipe.
    RW_ERROR(name_) << "filter loop failed: " << e.what();
    dis_->close();
    drive = Drive::kDone;
  }
  switch (drive) {
    case Drive::kIdle:
      return;  // a watcher or timer is armed; its fire posts the next drive
    case Drive::kMore:
      core.schedule();  // yield the worker, continue in a later batch
      return;
    case Drive::kDone:
      finish(core);
      return;
  }
}

void Filter::finish(detail::FilterEventCore& core) {
  // Uninstall the watchers first (under the stream locks) so a concurrent
  // notify cannot arm against a finished run, then flip alive: any task
  // already queued behind this one sees it and returns.
  dis_->set_read_scheduler(nullptr);
  dos_->set_write_scheduler(nullptr);
  event_stop();
  core.alive.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  rw::MutexLock lk(core.mu);
  core.done = true;
  core.done_cv.notify_all();
}

void Filter::detach_request() { dis_->mark_soft_eof(); }

bool Filter::set_param(const std::string& key, const std::string& value) {
  (void)key;
  (void)value;
  return false;
}

void Filter::register_metrics(obs::Scope scope) {
  // Raw pointers are safe: the chain drops this scope (blocking out any
  // in-flight snapshot) before the filter can be destroyed.
  auto* dis = dis_.get();
  auto* dos = dos_.get();
  scope.callback("bytes_in",
                 [dis] { return static_cast<double>(dis->bytes_received()); });
  scope.callback("ring_bytes",
                 [dis] { return static_cast<double>(dis->ring_bytes()); });
  scope.callback("bytes_out",
                 [dos] { return static_cast<double>(dos->bytes_sent()); });
  scope.callback("pauses",
                 [dos] { return static_cast<double>(dos->pauses()); });
  scope.callback("blocked_us",
                 [dos] { return static_cast<double>(dos->blocked_micros()); });
  scope.callback("wakeups",
                 [dis] { return static_cast<double>(dis->wakeups()); });
  scope.callback("wakeups_suppressed", [dis] {
    return static_cast<double>(dis->wakeups_suppressed());
  });
}

void ByteFilter::event_start() {
  ev_buf_ = util::BufferPool::local().acquire(kChunk);
  ev_out_.clear();
  ev_out_off_ = 0;
}

void ByteFilter::event_stop() {
  util::BufferPool::local().release(std::move(ev_buf_));
  ev_out_.clear();
  ev_out_off_ = 0;
}

bool ByteFilter::flush_ev_out() {
  while (!ev_out_.empty()) {
    util::Bytes& front = ev_out_.front();
    const std::size_t w =
        dos().try_write_some(util::ByteSpan(front).subspan(ev_out_off_));
    ev_out_off_ += w;
    if (ev_out_off_ < front.size()) return false;  // writable watcher armed
    util::BufferPool::local().release(std::move(front));
    ev_out_.pop_front();
    ev_out_off_ = 0;
  }
  return true;
}

Filter::Drive ByteFilter::on_ready() {
  if (!flush_ev_out()) return Drive::kIdle;
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool end = false;
    ev_buf_.resize(kChunk);
    const std::size_t n = dis().poll_read_borrow(
        kChunk,
        [this](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
          // One copy, into the recycled chunk buffer.
          std::memcpy(ev_buf_.data(), a.data(), a.size());
          if (!b.empty()) {
            std::memcpy(ev_buf_.data() + a.size(), b.data(), b.size());
          }
          return a.size() + b.size();
        },
        &end);
    if (n == 0) {
      ev_buf_.clear();
      // Nothing is parked here (a park returns kIdle at once), so EOF ends
      // the run; otherwise the readable watcher is armed.
      return end ? Drive::kDone : Drive::kIdle;
    }
    ev_buf_.resize(n);
    util::Bytes out = process(std::move(ev_buf_));
    if (!out.empty()) {
      const std::size_t w = dos().try_write_some(out);
      if (w < out.size()) {
        // Parked behind backpressure: keep the unwritten suffix, stop
        // reading input until the writable callback drains it.
        ev_out_.push_back(std::move(out));
        ev_out_off_ = w;
        ev_buf_ = util::BufferPool::local().acquire(kChunk);
        return Drive::kIdle;
      }
    }
    ev_buf_ = std::move(out);  // recycle the returned capacity
  }
  return Drive::kMore;
}

void PacketFilter::event_start() {
  ev_frames_ = std::make_unique<util::FrameReader>(dis());
  ev_pending_.clear();
  ev_flushed_ = false;
}

void PacketFilter::event_stop() { ev_frames_.reset(); }

bool PacketFilter::flush_ev_pending() {
  while (!ev_pending_.empty()) {
    if (!util::try_write_frame(dos(), ev_pending_.front())) {
      return false;  // writable watcher armed
    }
    util::BufferPool::local().release(std::move(ev_pending_.front()));
    ev_pending_.pop_front();
  }
  return true;
}

Filter::Drive PacketFilter::on_ready() {
  if (!flush_ev_pending()) return Drive::kIdle;
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    if (const util::Micros delay = input_delay(); delay > 0) {
      redrive_after(delay);
      return Drive::kIdle;
    }
    bool end = false;
    auto packet = ev_frames_->poll(&end);
    if (!packet) {
      if (!end) return Drive::kIdle;  // readable watcher armed
      if (!ev_flushed_) {
        ev_flushed_ = true;
        on_flush();
      }
      return flush_ev_pending() ? Drive::kDone : Drive::kIdle;
    }
    packets_in_.fetch_add(1, std::memory_order_relaxed);
    on_packet(std::move(*packet));
    if (!flush_ev_pending()) return Drive::kIdle;
  }
  return Drive::kMore;
}

void PacketFilter::emit(util::ByteSpan packet) {
  util::Bytes copy = util::BufferPool::local().acquire(packet.size());
  if (!packet.empty()) std::memcpy(copy.data(), packet.data(), packet.size());
  emit(std::move(copy));
}

void PacketFilter::emit(util::Bytes&& packet) {
  // Count before the frame becomes observable downstream so a STATS read
  // triggered by the packet's arrival never sees the counter lagging it.
  packets_out_.fetch_add(1, std::memory_order_relaxed);
  // Frames stay whole: all-or-nothing try_write_frame, with the packet
  // parked (move, no copy) when downstream is full or mid-splice. Input is
  // not consumed while anything is parked, so the backlog is bounded by
  // one on_packet()'s emissions.
  if (ev_pending_.empty() && util::try_write_frame(dos(), packet)) {
    util::BufferPool::local().release(std::move(packet));
    return;
  }
  ev_pending_.push_back(std::move(packet));
}

void PacketFilter::register_metrics(obs::Scope scope) {
  Filter::register_metrics(scope);
  scope.callback("packets_in",
                 [this] { return static_cast<double>(packets_in()); });
  scope.callback("packets_out",
                 [this] { return static_cast<double>(packets_out()); });
}

}  // namespace rapidware::core
