#include "filters/fec_filters.h"

#include "core/composability.h"
#include "media/media_packet.h"
#include "util/buffer_pool.h"
#include "util/stats.h"

namespace rapidware::filters {

FecEncodeFilter::FecEncodeFilter(std::size_t n, std::size_t k)
    : PacketFilter("fec-encode"),
      n_(n),
      k_(k),
      encoder_(std::make_unique<fec::GroupEncoder>(n, k)) {}

std::string FecEncodeFilter::describe() const {
  return "fec-enc(" + std::to_string(n_.load()) + "," +
         std::to_string(k_.load()) + ")";
}

std::string FecEncodeFilter::output_type(const std::string& input) const {
  return core::wrap_type("fec", input);
}

core::ParamMap FecEncodeFilter::params() const {
  return {{"n", std::to_string(n_.load())}, {"k", std::to_string(k_.load())}};
}

bool FecEncodeFilter::set_param(const std::string& key,
                                const std::string& value) {
  std::size_t v = 0;
  try {
    v = std::stoul(value);
  } catch (const std::exception&) {
    return false;
  }
  if (key == "n") {
    if (v == 0 || v >= 256 || v < k_.load()) return false;
    n_.store(v);
    return true;
  }
  if (key == "k") {
    if (v == 0 || v > n_.load()) return false;
    k_.store(v);
    return true;
  }
  return false;
}

void FecEncodeFilter::maybe_apply_params() {
  // Parameter changes land between groups, never mid-group.
  if (encoder_->held_count() != 0) return;
  if (encoder_->n() == n_.load() && encoder_->k() == k_.load()) return;
  // Preserve the group-id sequence across encoder swaps.
  group_id_base_ += static_cast<std::uint32_t>(encoder_->groups_emitted());
  auto fresh = std::make_unique<fec::GroupEncoder>(n_.load(), k_.load());
  fresh->set_next_group_id(group_id_base_);
  encoder_ = std::move(fresh);
}

void FecEncodeFilter::on_packet(util::Bytes packet) {
  maybe_apply_params();
  const std::uint64_t before = encoder_->groups_emitted();
  // Count the finished group before its packets hit the wire: a STATS read
  // triggered by the parity's arrival must not see the counter lagging.
  auto wire = encoder_->add(std::move(packet));
  m_groups_encoded_->add(encoder_->groups_emitted() - before);
  for (auto& w : wire) emit(std::move(w));
}

void FecEncodeFilter::on_flush() {
  const std::uint64_t before = encoder_->groups_emitted();
  auto wire = encoder_->flush();
  m_groups_encoded_->add(encoder_->groups_emitted() - before);
  for (auto& w : wire) emit(std::move(w));
}

void FecEncodeFilter::register_metrics(obs::Scope scope) {
  PacketFilter::register_metrics(scope);
  scope.registry().attach(scope.full("groups_encoded"), m_groups_encoded_);
}

FecDecodeFilter::FecDecodeFilter(std::size_t window)
    : PacketFilter("fec-decode"), decoder_(window) {}

std::string FecDecodeFilter::describe() const { return "fec-dec"; }

std::string FecDecodeFilter::output_type(const std::string& input) const {
  if (const auto inner = core::unwrap_type("fec", input)) return *inner;
  return input;  // pass-through for never-encoded streams
}

core::ParamMap FecDecodeFilter::params() const {
  // Read the atomic mirror, not the live decoder: params() runs on the
  // control thread (list_chain) while the filter thread decodes.
  const auto& s = shared_stats_;
  return {
      {"packets_seen", std::to_string(s.packets_seen.load())},
      {"data_received", std::to_string(s.data_received.load())},
      {"data_recovered", std::to_string(s.data_recovered.load())},
      {"data_lost", std::to_string(s.data_lost.load())},
      {"groups_complete", std::to_string(s.groups_complete.load())},
      {"groups_incomplete", std::to_string(s.groups_incomplete.load())},
  };
}

void FecDecodeFilter::on_packet(util::Bytes packet) {
  if (!fec::looks_like_fec_packet(packet)) {
    // Raw (never-encoded) packet: release pending FEC state first so order
    // is preserved across an encoder removal upstream, then pass through.
    for (auto&& payload : decoder_.flush()) emit(std::move(payload));
    emit(std::move(packet));
    sync_stats();
    return;
  }
  auto out = decoder_.add(packet);
  util::BufferPool::local().release(std::move(packet));
  for (auto& payload : out) emit(std::move(payload));
  sync_stats();
}

void FecDecodeFilter::on_flush() {
  for (auto&& payload : decoder_.flush()) emit(std::move(payload));
  sync_stats();
}

void FecDecodeFilter::sync_stats() {
  const auto& s = decoder_.stats();
  shared_stats_.packets_seen.store(s.packets_seen,
                                   std::memory_order_relaxed);
  shared_stats_.data_received.store(s.data_received,
                                    std::memory_order_relaxed);
  shared_stats_.data_recovered.store(s.data_recovered,
                                     std::memory_order_relaxed);
  shared_stats_.data_lost.store(s.data_lost, std::memory_order_relaxed);
  shared_stats_.groups_complete.store(s.groups_complete,
                                      std::memory_order_relaxed);
  shared_stats_.groups_incomplete.store(s.groups_incomplete,
                                        std::memory_order_relaxed);
}

void FecDecodeFilter::register_metrics(obs::Scope scope) {
  PacketFilter::register_metrics(scope);
  // Callbacks over the same atomic mirror params() reads.
  const auto publish = [&scope](const char* name,
                                const std::atomic<std::uint64_t>& v) {
    scope.callback(name, [&v] {
      return static_cast<double>(v.load(std::memory_order_relaxed));
    });
  };
  publish("groups_decoded", shared_stats_.groups_complete);
  publish("groups_incomplete", shared_stats_.groups_incomplete);
  publish("data_recovered", shared_stats_.data_recovered);
  publish("data_lost", shared_stats_.data_lost);
}

UepFecEncodeFilter::UepFecEncodeFilter(fec::UepPolicy policy)
    : PacketFilter("uep-fec-encode"), policy_(std::move(policy)) {}

std::string UepFecEncodeFilter::describe() const { return "uep-fec-enc"; }

std::string UepFecEncodeFilter::output_type(const std::string& input) const {
  return core::wrap_type("fec", input);
}

fec::GroupEncoder& UepFecEncodeFilter::encoder_for(fec::FrameClass cls) {
  auto it = encoders_.find(cls);
  if (it == encoders_.end()) {
    const fec::CodeParams code = policy_.lookup(cls);
    it = encoders_
             .emplace(cls, std::make_unique<fec::GroupEncoder>(code.n, code.k))
             .first;
  }
  return *it->second;
}

void UepFecEncodeFilter::emit_wire(std::vector<util::Bytes> wire,
                                   std::size_t k) {
  for (auto& w : wire) emit(std::move(w));
  if (wire.size() > k) {
    parity_out_.fetch_add(wire.size() - k, std::memory_order_relaxed);
  }
  if (!wire.empty()) m_groups_encoded_->add();
}

void UepFecEncodeFilter::register_metrics(obs::Scope scope) {
  PacketFilter::register_metrics(scope);
  scope.registry().attach(scope.full("groups_encoded"), m_groups_encoded_);
  scope.callback("parity_packets", [this] {
    return static_cast<double>(parity_packets_emitted());
  });
}

void UepFecEncodeFilter::on_packet(util::Bytes packet) {
  // Not a media packet: protect at the default class level.
  const fec::FrameClass cls = media::MediaPacket::peek_frame_class(packet)
                                  .value_or(fec::FrameClass::kOther);
  fec::GroupEncoder& encoder = encoder_for(cls);
  // Group ids are issued at completion time across all classes, keeping the
  // merged stream's ids monotonic for the decoder.
  encoder.set_next_group_id(next_group_id_);
  const std::uint64_t before = encoder.groups_emitted();
  auto wire = encoder.add(std::move(packet));
  if (encoder.groups_emitted() > before) ++next_group_id_;
  emit_wire(std::move(wire), encoder.k());
}

void UepFecEncodeFilter::on_flush() {
  for (auto& [cls, encoder] : encoders_) {
    const std::size_t held = encoder->held_count();
    if (held == 0) continue;
    encoder->set_next_group_id(next_group_id_++);
    emit_wire(encoder->flush(), held);
  }
}

}  // namespace rapidware::filters
