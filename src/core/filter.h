// Filter base classes (the paper's Filter class, Section 4).
//
// Every proxy filter owns one DetachableInputStream and one
// DetachableOutputStream — always present, so the ControlThread/FilterChain
// can splice the filter in and out of a running stream. Where the paper
// gives every filter its own thread, a filter here runs as a non-blocking
// drive on a core::EventLoop worker (docs/data_plane.md, "Worker model"):
// start(loop) registers readiness watchers on its streams, and the loop
// calls on_ready() whenever an armed poll could now make progress, so an
// idle filter holds no thread at all.
//
// Two processing styles:
//   * PacketFilter — on_packet() handles whole length-prefixed frames
//     (util::framing), which is how stream-type-specific insertion points
//     ("frame boundaries", Section 3) are honoured. Every production
//     filter is one, and so are the endpoints (core/endpoint.h), which
//     swap where packets come from (poll_input) or go (try_output) and
//     keep the one drive, parking FIFO and packets_in/packets_out;
//   * ByteFilter   — process() transforms raw byte chunks, cutting the
//     framed stream at arbitrary byte offsets: NullFilter and the stress
//     harness's pass-through stages.
//
// Removal protocol: the chain marks the filter's DIS with a soft EOF; the
// drive reads what is buffered, observes end-of-stream, calls the flush
// hook (e.g. emit a partial FEC group), and finishes WITHOUT closing its
// DOS, so downstream stays connected.
//
// Teardown: the chain arms close_output_when_done() on every stage, so
// each one drains and flushes, and its final drive then closes its DOS:
// the end of the stream ripples down the chain behind the last packet.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/detachable_stream.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/frame_reader.h"

namespace rapidware::core {

class EventLoop;

namespace detail {
struct FilterEventCore;
}  // namespace detail

/// Free-form key/value parameters a filter exposes for the control manager.
using ParamMap = std::map<std::string, std::string>;

class Filter {
 public:
  explicit Filter(std::string name,
                  std::size_t buffer_capacity =
                      DetachableInputStream::kDefaultCapacity);
  virtual ~Filter();

  Filter(const Filter&) = delete;
  Filter& operator=(const Filter&) = delete;

  const std::string& name() const noexcept { return name_; }

  DetachableInputStream& dis() noexcept { return *dis_; }
  DetachableOutputStream& dos() noexcept { return *dos_; }

  /// Hosts the filter on `loop`: the loop drives on_ready() whenever a
  /// stream readiness callback fires. May be called again after the
  /// previous run finished (filters are restartable so a removed filter can
  /// be re-inserted elsewhere in the chain, on any worker).
  void start(EventLoop& loop);

  /// True from start() until the run's final drive.
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Waits for the run's final drive. Does not itself request the exit —
  /// mark the input's soft EOF (dis().mark_soft_eof()) or close it first.
  /// Control-plane threads only: on the filter's own worker the drive that
  /// would end the run is queued behind the caller.
  void join();

  /// Closes the output once the current run has ended, or at once if it
  /// already has (or never started). A live run's final drive closes it,
  /// before join() can return. Once per run, and only when no control op
  /// will splice this filter's streams again: a closed DOS stays closed.
  void close_output_when_done();

  /// Asks a source-driven filter (reader endpoint) to stop producing.
  /// Default: no-op; ordinary filters stop at their input's soft EOF.
  virtual void interrupt() {}

  /// The stages the chain runs in this filter's place: this filter itself,
  /// unless it is a composite (filters::PipelineFilter), whose children
  /// the chain splices in as consecutive stages. A composite is one unit
  /// for positions and typing but never runs itself.
  virtual std::vector<Filter*> stages() { return {this}; }

  /// Human-readable one-line description for the control manager.
  virtual std::string describe() const { return name_; }

  /// Current tunable parameters (FEC (n,k), throttle rate, ...).
  virtual ParamMap params() const { return {}; }

  /// Reconfigures a parameter at run time; returns false if unknown/invalid.
  virtual bool set_param(const std::string& key, const std::string& value);

  // Composability typing (core/composability.h): what stream type this
  // filter requires, and how it transforms the type. Defaults describe a
  // type-preserving filter that accepts anything (taps, throttles, null).
  virtual std::string input_requirement() const { return "any"; }
  virtual std::string output_type(const std::string& input) const {
    return input;
  }

  /// Publishes this filter's metrics under `scope` (callback gauges over the
  /// filter's streams). FilterChain::bind_metrics calls this for every
  /// member and drops the scope before the filter can be destroyed.
  /// Overrides must call the base (a composite publishes its children's
  /// instead), and registered callbacks must not acquire the chain mutex
  /// (lock-order rule in src/obs/metrics.h).
  virtual void register_metrics(obs::Scope scope);

 protected:
  /// What one on_ready() drive concluded.
  enum class Drive {
    kIdle,  // would-block: a readiness watcher or timer is armed, wait for it
    kMore,  // work budget exhausted; re-post so other chains get a turn
    kDone,  // stream ended: the run is over
  };

  /// One non-blocking drive: pull input via the poll APIs until would-block
  /// or the per-iteration budget is spent. Runs on the loop thread; must
  /// never block (the whole point — rw_lint RW008 polices the loop and the
  /// filter library).
  virtual Drive on_ready() = 0;

  /// Run lifecycle hooks, called on the control thread in start() (before
  /// the first drive) and on the loop thread after the final one. Reset
  /// per-run decode state here (FrameReader, pending buffers).
  virtual void event_start() {}
  virtual void event_stop() {}

  /// The readiness target for auxiliary inputs (endpoint packet sources
  /// register this with set_scheduler). Valid between event_start() and
  /// event_stop().
  Scheduler* event_scheduler() const noexcept;

  /// Now on the hosting loop's wall-slaved clock (EventLoop::clock()).
  /// Valid between event_start() and event_stop().
  util::Micros loop_now() const;

  /// Re-drives this filter once `delay` microseconds of loop_now() have
  /// passed: a one-shot timer on the hosting loop, which is how a drive
  /// waits for time without blocking the worker its neighbours share.
  void redrive_after(util::Micros delay);

  /// Per-drive work budget: after this many packets/chunks the drive
  /// returns kMore, yielding the worker to other chains (fairness under
  /// run-to-completion dispatch).
  static constexpr int kDriveBudget = 64;

 private:
  friend struct detail::FilterEventCore;

  void drive(detail::FilterEventCore& core);
  void finish(detail::FilterEventCore& core);

  std::string name_;
  std::unique_ptr<DetachableInputStream> dis_;
  std::unique_ptr<DetachableOutputStream> dos_;
  // Not mutex-guarded by design: start()/join() are control-plane calls,
  // serialized externally (FilterChain holds its mu_ across every splice).
  // Only `running_` may be read concurrently, hence atomic. `event_core_`
  // is written by start() and read by join()/the destructor — both
  // control-plane — and by the run's own drives, which start() orders
  // after the write; loop tasks hold their own shared_ptr copy.
  std::atomic<bool> running_{false};
  std::shared_ptr<detail::FilterEventCore> event_core_;
  // Drives that died on an exception other than BrokenPipe (published as
  // the `failures` gauge); relaxed, read by STATS snapshots.
  std::atomic<std::uint64_t> failures_{0};
};

/// Transforms raw byte chunks. It never looks at frame boundaries: a chunk
/// may end mid-header, and the next packet stage downstream (at the latest
/// the writer endpoint) reassembles the frames with its FrameReader.
class ByteFilter : public Filter {
 public:
  using Filter::Filter;

 protected:
  /// The drive: fed by poll_read_borrow, drained by try_write_some. A chunk
  /// that does not fit downstream is parked in ev_out_ and retried on the
  /// writable callback; input is not read while output is parked, so the
  /// parked backlog is bounded by one process() result.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

  /// Transforms `in`; whatever it returns is written downstream. The default
  /// passes data through unchanged.
  virtual util::Bytes process(util::Bytes in) { return in; }

  /// Chunk size for reads. Sized to drain a default 64 KiB stream buffer
  /// in a couple of reads: every read is a lock acquisition, so bigger
  /// chunks directly cut per-byte synchronization on pass-through hops.
  static constexpr std::size_t kChunk = 32768;

 private:
  bool flush_ev_out();

  // Run state; touched only on the loop thread between event_start() and
  // the final drive.
  util::Bytes ev_buf_;                 // recycled read/process buffer
  std::deque<util::Bytes> ev_out_;     // output parked behind backpressure
  std::size_t ev_out_off_ = 0;         // bytes of ev_out_.front() written
};

/// Transforms whole framed packets; may emit zero or more packets per input.
/// Packets come from poll_input() and leave through try_output(): by
/// default the frames of dis() and dos(). The endpoints (core/endpoint.h)
/// are packet filters that replace one of the two, so every packet stage
/// reads, parks, counts and reports through this one drive.
class PacketFilter : public Filter {
 public:
  using Filter::Filter;

  void register_metrics(obs::Scope scope) override;

 protected:
  /// The drive: packets via poll_input(), each handed to on_packet(), the
  /// end to on_flush(). Emits that try_output() refuses are parked in
  /// ev_pending_ and retried on the writable callback before any new input
  /// is taken.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

  /// Handles one input packet; call emit() for each output packet.
  virtual void on_packet(util::Bytes packet) = 0;

  /// Called on EOF before the run ends; emit pending state here.
  virtual void on_flush() {}

  /// Pacing hook, asked before each input read: a positive return defers
  /// the read by that many microseconds of loop_now() (redrive_after); 0
  /// reads now. A pacing filter (ThrottleFilter) overrides this instead of
  /// sleeping on the worker.
  virtual util::Micros input_delay() { return 0; }

  /// Where the next packet comes from: the next frame of dis(), decoded by
  /// a batched FrameReader. nullopt with *end == false is would-block (a
  /// readiness watcher is armed); with *end == true the input has ended.
  virtual std::optional<util::Bytes> poll_input(bool* end);

  /// Where an emitted packet goes: one all-or-nothing try_write_frame into
  /// dos(). Returns whether the packet was taken whole; a refusal must arm
  /// a watcher that re-drives the filter, which then retries the packet.
  virtual bool try_output(util::ByteSpan packet);

  /// Writes one framed packet downstream.
  void emit(util::ByteSpan packet);

  /// Move-through emit: writes the packet, then recycles its capacity
  /// through the calling thread's arena (util::BufferPool::local() — the
  /// worker's pool). A pass-through hop — FrameReader acquires from the
  /// pool, on_packet forwards with emit(std::move(packet)) — touches the
  /// allocator zero times per packet in steady state (asserted by the pool
  /// hit-rate test). Prefer this overload whenever the packet buffer is
  /// dead after the call.
  void emit(util::Bytes&& packet);

  /// Packets poll_input() produced, and packets try_output() took.
  std::uint64_t packets_in() const noexcept {
    return packets_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_out() const noexcept {
    return packets_out_.load(std::memory_order_relaxed);
  }

 private:
  /// One try_output() of a whole packet, counted in packets_out only if it
  /// is taken. Throws what try_output throws.
  bool try_send(util::ByteSpan packet);
  bool flush_ev_pending();

  // Atomic so snapshot readers can observe them while the loop runs.
  std::atomic<std::uint64_t> packets_in_{0};
  std::atomic<std::uint64_t> packets_out_{0};

  // Run state; loop-thread-only between event_start() and the final drive.
  // None of it allocates until used: the parked FIFO is a vector drained
  // from ev_pending_pos_, so a stage that never parks never allocates it.
  std::optional<util::FrameReader> ev_frames_;
  std::vector<util::Bytes> ev_pending_;  // emits parked behind backpressure
  std::size_t ev_pending_pos_ = 0;       // first of ev_pending_ not yet sent
  bool ev_flushed_ = false;              // on_flush() already ran this run
};

/// The "null" filter: forwards bytes untouched. Two EndPoints plus a null
/// filter (or none) form the paper's null proxy.
class NullFilter final : public ByteFilter {
 public:
  NullFilter() : ByteFilter("null") {}
  explicit NullFilter(std::string name) : ByteFilter(std::move(name)) {}
};

}  // namespace rapidware::core
