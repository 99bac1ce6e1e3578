#include "core/filter.h"

#include <cstring>
#include <span>

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
  /// the armed-under-the-stream-lock protocol makes a lost wake-up
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
  // The final drive and close_output_when_done() each exchange this to
  // true; whichever comes second closes the DOS, so it closes exactly once
  // and never before the run has ended.
  std::atomic<bool> close_output{false};

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
    // turns upstream backpressure into BrokenPipe. STATS shows the death.
    failures_.fetch_add(1, std::memory_order_relaxed);
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
  if (core.close_output.exchange(true, std::memory_order_acq_rel)) {
    dos_->close();
  }
  core.alive.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  rw::MutexLock lk(core.mu);
  core.done = true;
  core.done_cv.notify_all();
}

void Filter::close_output_when_done() {
  if (!event_core_ ||
      event_core_->close_output.exchange(true, std::memory_order_acq_rel)) {
    dos_->close();
  }
}

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
  scope.callback("failures", [this] {
    return static_cast<double>(failures_.load(std::memory_order_relaxed));
  });
}

void NullFilter::event_start() {
  ev_chunk_ = util::BufferPool::local().acquire(kChunk);
  ev_parked_ = false;
}

void NullFilter::event_stop() {
  // A drive that died with a chunk parked lost it; drop it with the run.
  util::BufferPool::local().release(std::move(ev_chunk_));
  ev_parked_ = false;
}

Filter::Drive NullFilter::on_ready() {
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    if (!ev_parked_) {
      bool end = false;
      const std::size_t n = dis().poll_read_borrow(
          0,
          [this](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
            // Whole frames only, with one copy into the recycled chunk.
            const std::size_t len = util::whole_frames(a, b, kChunk);
            ev_chunk_.resize(len);
            util::copy_spans(a, b, 0, ev_chunk_);
            return len;
          },
          &end);
      // Nothing is parked here, so EOF ends the run; otherwise the
      // readable watcher is armed.
      if (n == 0) return end ? Drive::kDone : Drive::kIdle;
    }
    const util::ByteSpan chunk(ev_chunk_);
    ev_parked_ = !dos().try_write_vec(std::span(&chunk, 1));
    // Parked: no input is read until the writable watcher's re-drive
    // lands the chunk whole.
    if (ev_parked_) return Drive::kIdle;
  }
  return Drive::kMore;
}

void PacketFilter::event_start() {
  ev_frames_.emplace(dis());
  ev_flushed_ = false;
}

void PacketFilter::event_stop() {
  // A drive that died with emits parked lost them; drop them with the run.
  ev_frames_.reset();
  ev_pending_.clear();
  ev_pending_pos_ = 0;
}

std::optional<util::Bytes> PacketFilter::poll_input(bool* end) {
  return ev_frames_->poll(end);
}

bool PacketFilter::try_output(util::ByteSpan packet) {
  return util::try_write_frame(dos(), packet);
}

bool PacketFilter::try_send(util::ByteSpan packet) {
  // Count before the packet becomes observable downstream, so a STATS read
  // triggered by its arrival never sees the counter lagging it, and take
  // the count back when it was not taken: a parked packet is counted when
  // it lands, and one lost to a closed reader or a throwing sink never.
  packets_out_.fetch_add(1, std::memory_order_relaxed);
  bool taken = false;
  try {
    taken = try_output(packet);
  } catch (...) {
    packets_out_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  if (!taken) packets_out_.fetch_sub(1, std::memory_order_relaxed);
  return taken;
}

bool PacketFilter::flush_ev_pending() {
  for (; ev_pending_pos_ < ev_pending_.size(); ++ev_pending_pos_) {
    util::Bytes& front = ev_pending_[ev_pending_pos_];
    if (!try_send(front)) return false;  // writable watcher armed
    util::BufferPool::local().release(std::move(front));
  }
  ev_pending_.clear();  // keeps the capacity for the next park
  ev_pending_pos_ = 0;
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
    auto packet = poll_input(&end);
    if (!packet) {
      if (!end) return Drive::kIdle;  // readable watcher armed
      // Ended: finish without closing the DOS, so downstream stays
      // connected (removal protocol).
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
  // Packets stay whole: all-or-nothing try_output, with the packet parked
  // (move, no copy) when downstream is full or mid-splice. Input is not
  // consumed while anything is parked, so the backlog is bounded by one
  // on_packet()'s emissions.
  if (ev_pending_.empty() && try_send(packet)) {
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
