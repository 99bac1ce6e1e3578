// EndPoint objects (paper, Section 4): special filters that bridge the
// chain's detachable streams to the outside world. A reader endpoint pulls
// from a source and writes into its DOS; a writer endpoint reads its DIS and
// pushes into a sink. Two endpoints plus a ControlThread form a null proxy.
//
// Network-backed endpoints (the paper's EndPointSocketReader/Writer) live in
// src/proxy, built on these generic classes; here we depend only on the
// abstract byte/packet source and sink interfaces.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/filter.h"
#include "util/io.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

/// Packet producer for reader endpoints, consumed without blocking: a poll
/// that finds nothing arms the registered scheduler, whose on_readable()
/// fires exactly once when a packet (or the end) arrives — the same
/// one-shot contract the detachable streams use.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// The next packet, or nullopt: with *finished=false that means
  /// would-block (the scheduler is now armed); with *finished=true the
  /// source is exhausted or was interrupted.
  virtual std::optional<util::Bytes> poll_packet(bool* finished) = 0;

  /// Registers (or, with nullptr, clears) the readiness target for
  /// poll_packet() would-blocks. The callback may run under the source's
  /// internal lock and must only post, never re-enter the source. Default:
  /// no-op, for sources whose polls always make progress.
  virtual void set_scheduler(Scheduler*) {}

  /// Ends the stream from another thread: polls report finished once what
  /// is already queued has been taken, and an armed scheduler fires so the
  /// endpoint notices.
  virtual void interrupt() {}
};

/// Packet consumer for writer endpoints.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(util::ByteSpan packet) = 0;
  /// Called once when the stream feeding this sink ends.
  virtual void on_end() {}
};

/// Reads whole packets from a PacketSource and sends them down the chain as
/// framed messages (the paper's EndPointSocketReader shape).
class PacketReaderEndpoint final : public Filter {
 public:
  PacketReaderEndpoint(std::string name, std::shared_ptr<PacketSource> source);

  /// Asks the source to stop; the run ends after the current packet.
  void interrupt() override { source_->interrupt(); }

  std::uint64_t packets_read() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  void register_metrics(obs::Scope scope) override;

 protected:
  /// The drive: poll packets from the source and frame them downstream.
  /// A frame that finds the ring full is parked (one-deep stash) and
  /// retried on the writable callback; source exhaustion reaches kDone
  /// without closing the DOS, so downstream stays connected.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<PacketSource> source_;
  std::atomic<std::uint64_t> packets_{0};
  // Run state; loop-thread-only between event_start() and the final drive.
  std::optional<util::Bytes> ev_parked_;  // payload awaiting ring space
};

/// Reads framed messages from the chain and delivers them to a PacketSink
/// (the paper's EndPointSocketWriter shape).
class PacketWriterEndpoint final : public Filter {
 public:
  PacketWriterEndpoint(std::string name, std::shared_ptr<PacketSink> sink,
                       std::size_t buffer_capacity =
                           DetachableInputStream::kDefaultCapacity);

  std::uint64_t packets_written() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  void register_metrics(obs::Scope scope) override;

 protected:
  /// The drive: batched FrameReader::poll() pulls, each frame delivered to
  /// the sink inline (sinks are non-blocking consumers by contract). EOF
  /// calls on_end() once, then kDone.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<PacketSink> sink_;
  std::atomic<std::uint64_t> packets_{0};
  // Run state; loop-thread-only between event_start() and the final drive.
  std::unique_ptr<util::FrameReader> ev_frames_;
  bool ev_ended_ = false;  // on_end() already delivered this run
};

/// Adapts a util::ReadyWatcher fire into a core::Scheduler re-drive —
/// the bridge that lets endpoints watch any pollable util::ByteSource /
/// ByteSink or net::SimSocket (which cannot reference core::Scheduler from
/// the lower layers). Fired possibly under the source/sink's lock: only
/// posts, per both contracts.
class IoReadyForwarder final : public util::ReadyWatcher {
 public:
  void bind(Scheduler* target) noexcept { target_ = target; }
  void on_io_ready() override {
    if (target_ != nullptr) target_->on_readable();
  }

 private:
  Scheduler* target_ = nullptr;
};

/// Byte-oriented reader endpoint over a pollable util::ByteSource (the
/// paper's EndPointStreamReader): file, in-memory buffer, generator.
class ByteReaderEndpoint final : public Filter {
 public:
  /// Throws std::invalid_argument when `source` is not pollable(): a
  /// worker drive cannot wait in a blocking read_some().
  ByteReaderEndpoint(std::string name, std::shared_ptr<util::ByteSource> source,
                     std::size_t chunk = 4096);

 protected:
  /// The drive: poll the source into the recycled chunk buffer, push it
  /// downstream with try_write_some, park the unwritten suffix on
  /// backpressure (input is not consumed while anything is parked). EOF
  /// drains the park, then kDone.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  bool flush_ev_parked();

  std::shared_ptr<util::ByteSource> source_;
  std::size_t chunk_;
  // Run state; loop-thread-only between the first drive and the final one
  // (the chunk buffer is acquired lazily ON the loop thread so it comes
  // from — and returns to — the worker's arena).
  IoReadyForwarder ev_watch_;
  util::Bytes ev_buf_;
  std::size_t ev_off_ = 0;  // written prefix of the parked ev_buf_
  bool ev_parked_ = false;
};

/// Byte-oriented writer endpoint over a pollable util::ByteSink.
class ByteWriterEndpoint final : public Filter {
 public:
  /// Throws std::invalid_argument when `sink` is not pollable().
  ByteWriterEndpoint(std::string name, std::shared_ptr<util::ByteSink> sink,
                     std::size_t buffer_capacity =
                         DetachableInputStream::kDefaultCapacity);

 protected:
  /// The drive: batched poll_read_borrow pulls from the chain, pushed
  /// into the sink with try_write_some; a short sink write parks the
  /// suffix until the sink's ready watcher fires. EOF flushes, then kDone.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  bool flush_ev_parked();

  std::shared_ptr<util::ByteSink> sink_;
  // Run state; loop-thread-only (see ByteReaderEndpoint).
  IoReadyForwarder ev_watch_;
  util::Bytes ev_buf_;
  std::size_t ev_off_ = 0;
  bool ev_parked_ = false;
};

/// In-memory packet source backed by a queue; push() feeds the endpoint,
/// finish() ends the stream. Used heavily by tests and examples.
class QueuePacketSource final : public PacketSource {
 public:
  std::optional<util::Bytes> poll_packet(bool* finished) override;
  void set_scheduler(Scheduler* sched) override;
  void interrupt() override { finish(); }

  void push(util::Bytes packet);
  void finish();

 private:
  /// Fires the armed scheduler (one-shot) under mu_; push()/finish() call
  /// this so the endpoint's drive is re-posted on arrival.
  void fire_readable_locked() RW_REQUIRES(mu_);

  rw::Mutex mu_{"core/packet_queue", rw::lockrank::kPacketQueue};
  std::deque<util::Bytes> queue_ RW_GUARDED_BY(mu_);
  bool finished_ RW_GUARDED_BY(mu_) = false;
  Scheduler* sched_ RW_GUARDED_BY(mu_) = nullptr;
  bool sched_armed_ RW_GUARDED_BY(mu_) = false;  // one-shot, armed by poll
};

/// In-memory packet sink collecting everything it receives.
class CollectingPacketSink final : public PacketSink {
 public:
  void deliver(util::ByteSpan packet) override;
  void on_end() override;

  /// Blocks until at least n packets arrived or the stream ended.
  bool wait_for(std::size_t n, std::int64_t timeout_ms = 10'000);
  /// Blocks until the stream ends.
  bool wait_end(std::int64_t timeout_ms = 10'000);

  std::vector<util::Bytes> packets() const;
  std::size_t count() const;
  bool ended() const;

 private:
  mutable rw::Mutex mu_{"core/packet_collector", rw::lockrank::kPacketCollector};
  rw::CondVar cv_;
  std::vector<util::Bytes> packets_ RW_GUARDED_BY(mu_);
  bool ended_ RW_GUARDED_BY(mu_) = false;
  int waiters_ RW_GUARDED_BY(mu_) = 0;  // threads parked in wait_for/wait_end
};

}  // namespace rapidware::core
