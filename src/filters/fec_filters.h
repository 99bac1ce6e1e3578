// FEC proxy filters — the paper's flagship example (Section 5): an encoder
// filter inserted before the wireless hop and a decoder filter at (or for)
// the receiver. Both are PacketFilters, so insertion happens on packet
// boundaries, and both flush buffered group state when removed from a chain
// (the detach protocol), so no audio is lost when the proxy reconfigures.
#pragma once

#include <atomic>
#include <map>
#include <memory>

#include "core/filter.h"
#include "fec/fec_group.h"
#include "fec/uep.h"

namespace rapidware::filters {

/// Collects k payload packets, emits n FEC-framed packets per group.
/// Parameters "n"/"k" may be retuned at run time; the change applies at the
/// next group boundary.
class FecEncodeFilter final : public core::PacketFilter {
 public:
  FecEncodeFilter(std::size_t n, std::size_t k);

  std::string describe() const override;
  core::ParamMap params() const override;
  bool set_param(const std::string& key, const std::string& value) override;

  std::size_t n() const noexcept { return n_.load(); }
  std::size_t k() const noexcept { return k_.load(); }

  std::string output_type(const std::string& input) const override;

  /// Adds "groups_encoded" to the base packet/byte metrics.
  void register_metrics(obs::Scope scope) override;

  std::uint64_t groups_encoded() const noexcept {
    return m_groups_encoded_->value();
  }

 protected:
  void on_packet(util::Bytes packet) override;
  void on_flush() override;

 private:
  void maybe_apply_params();

  std::atomic<std::size_t> n_, k_;
  std::unique_ptr<fec::GroupEncoder> encoder_;
  std::uint32_t group_id_base_ = 0;
  // Owned metric, attached (not re-created) at register_metrics time so the
  // filter thread can bump it without synchronizing with binding.
  std::shared_ptr<obs::Counter> m_groups_encoded_ =
      std::make_shared<obs::Counter>();
};

/// Rebuilds the original payload stream from FEC-framed packets, recovering
/// erased packets whenever any k of a group's n packets arrive. Packets
/// without FEC framing pass through untouched, so the decoder can sit in a
/// receiver chain permanently while the encoder comes and goes on demand.
class FecDecodeFilter final : public core::PacketFilter {
 public:
  explicit FecDecodeFilter(std::size_t window = 2);

  std::string describe() const override;
  core::ParamMap params() const override;

  // Accepts anything (raw packets pass through); strips one FEC layer.
  std::string output_type(const std::string& input) const override;

  /// Filter-thread view of the decoder counters. Only safe once the
  /// stream is quiesced (filter stopped or drained); concurrent readers
  /// must use params() or the registered gauges instead.
  const fec::DecoderStats& stats() const { return decoder_.stats(); }

  /// Adds groups_decoded / groups_incomplete / data_recovered / data_lost.
  void register_metrics(obs::Scope scope) override;

 protected:
  void on_packet(util::Bytes packet) override;
  void on_flush() override;

 private:
  void sync_stats();

  fec::GroupDecoder decoder_;
  // Atomic mirror of decoder_.stats(), refreshed by sync_stats() on the
  // filter thread, so params() and the registered metrics (control thread,
  // e.g. a controller's list_chain or a STATS snapshot while traffic flows)
  // never touch the live decoder.
  struct AtomicStats {
    std::atomic<std::uint64_t> packets_seen{0};
    std::atomic<std::uint64_t> data_received{0};
    std::atomic<std::uint64_t> data_recovered{0};
    std::atomic<std::uint64_t> data_lost{0};
    std::atomic<std::uint64_t> groups_complete{0};
    std::atomic<std::uint64_t> groups_incomplete{0};
  };
  AtomicStats shared_stats_;
};

/// Unequal error protection for video: frames are grouped *per frame
/// class*, each class encoded with the (n, k) its policy entry dictates —
/// more parity for I frames than B frames (Section 3 / [24]). All class
/// encoders share one group-id sequence (ids issued in group-completion
/// order), so a single downstream FecDecodeFilter handles the merged
/// stream. Frames may be released in completion order rather than strict
/// capture order across classes; video receivers reorder by media sequence
/// number, as they already must for B frames.
class UepFecEncodeFilter final : public core::PacketFilter {
 public:
  explicit UepFecEncodeFilter(fec::UepPolicy policy = fec::UepPolicy::standard());

  std::string describe() const override;
  std::string output_type(const std::string& input) const override;

  std::uint64_t parity_packets_emitted() const noexcept {
    return parity_out_.load(std::memory_order_relaxed);
  }

  /// Adds "groups_encoded" and "parity_packets".
  void register_metrics(obs::Scope scope) override;

 protected:
  void on_packet(util::Bytes packet) override;
  void on_flush() override;

 private:
  fec::GroupEncoder& encoder_for(fec::FrameClass cls);
  void emit_wire(std::vector<util::Bytes> wire, std::size_t k);

  fec::UepPolicy policy_;
  std::map<fec::FrameClass, std::unique_ptr<fec::GroupEncoder>> encoders_;
  std::uint32_t next_group_id_ = 0;
  // Written on the filter thread, read by parity_packets_emitted() and the
  // "parity_packets" metric from any thread.
  std::atomic<std::uint64_t> parity_out_{0};
  std::shared_ptr<obs::Counter> m_groups_encoded_ =
      std::make_shared<obs::Counter>();
};

}  // namespace rapidware::filters
