// EndPoint objects (paper, Section 4): special filters that bridge the
// chain's detachable streams to the outside world. Both are PacketFilters
// that replace one end of its drive: a reader endpoint takes its packets
// from a PacketSource instead of its DIS and frames them into its DOS; a
// writer endpoint reads frames from its DIS and hands each payload to a
// PacketSink instead of its DOS. So endpoints read, park, count and report
// (`packets_in`/`packets_out`) like every other packet stage. Two
// endpoints plus a ControlThread form a null proxy.
//
// This one endpoint pair carries every chain: the proxy's socket legs (the
// paper's EndPointSocketReader/Writer, built on these classes in
// src/proxy), the per-flow queue legs, the benches, the examples and the
// stress harness (src/testing). Whatever runs in between writes whole
// frames, so the writer endpoint's FrameReader decodes every refill whole.
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
/// framed messages (the paper's EndPointSocketReader shape): a PacketFilter
/// whose input is the source instead of its DIS. packets_in counts packets
/// taken from the source, packets_out those that landed in the chain.
class PacketReaderEndpoint final : public PacketFilter {
 public:
  PacketReaderEndpoint(std::string name, std::shared_ptr<PacketSource> source);

  /// Asks the source to stop; the run ends after the current packet.
  void interrupt() override { source_->interrupt(); }

  std::uint64_t packets_read() const noexcept { return packets_in(); }

 protected:
  /// Polls the source: its would-block arms event_scheduler(), and its end
  /// finishes the run without closing the DOS, so downstream stays
  /// connected.
  std::optional<util::Bytes> poll_input(bool* end) override {
    return source_->poll_packet(end);
  }
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<PacketSource> source_;
};

/// Reads framed messages from the chain and delivers them to a PacketSink
/// (the paper's EndPointSocketWriter shape): a PacketFilter whose output is
/// the sink instead of its DOS. packets_in counts frames read, packets_out
/// packets the sink took.
class PacketWriterEndpoint final : public PacketFilter {
 public:
  PacketWriterEndpoint(std::string name, std::shared_ptr<PacketSink> sink,
                       std::size_t buffer_capacity =
                           DetachableInputStream::kDefaultCapacity);

  std::uint64_t packets_written() const noexcept { return packets_out(); }

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
  /// The stream ended: on_end(), once per run.
  void on_flush() override { sink_->on_end(); }
  /// Delivers inline (sinks are non-blocking consumers by contract), so the
  /// sink takes every packet; one it throws on is not counted as out, and
  /// the throw ends the run.
  bool try_output(util::ByteSpan packet) override {
    sink_->deliver(packet);
    return true;
  }

 private:
  std::shared_ptr<PacketSink> sink_;
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
