#include "rig.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "filters/registry.h"
#include "obs/metrics.h"
#include "wireless/path_loss.h"

namespace perfbench {

constinit thread_local WorkerCtx* t_worker = nullptr;

namespace {

constexpr std::uint16_t kStationPort = 5000;
constexpr char kScope[] = "bench";
// Receiver decoders hold this many groups open: more than any interleave
// depth below, so interleaved groups are never released early.
constexpr std::size_t kDecoderWindow = 8;

core::FilterSpec fec_stage(int n, int k) {
  return {"fec-encode", {{"n", std::to_string(n)}, {"k", std::to_string(k)}}};
}
core::FilterSpec interleave_stage(int rows, int depth) {
  return {"interleave",
          {{"rows", std::to_string(rows)}, {"depth", std::to_string(depth)}}};
}

core::FlowRule rule(std::string name, std::string type,
                    std::optional<core::LossRegime> regime,
                    core::ChainSpec chain) {
  core::FlowRule r;
  r.name = std::move(name);
  r.stream_type = std::move(type);
  r.regime = regime;
  r.chain = std::move(chain);
  return r;
}

core::ChainSpec fec64(bool il) {
  core::ChainSpec c{il ? "fec-6-4-il" : "fec-6-4", {fec_stage(6, 4)}};
  if (il) c.stages.push_back(interleave_stage(6, 4));
  return c;
}

std::uint32_t packet_id(std::uint32_t flow, std::uint32_t seq) {
  return flow << 20 | (seq & 0xfffff);
}

// Span id of a wire packet: (flow, media seq) for data, seq 0xfffff for
// parity, read straight from the headers without parsing.
std::uint32_t wire_id(std::uint32_t flow, util::ByteSpan wire) {
  if (fec::looks_like_fec_packet(wire)) {
    if (wire[6] >= wire[7]) return packet_id(flow, 0xfffff);
    wire = wire.subspan(fec::GroupHeader::kWireSize);
  }
  std::uint32_t seq = 0xfffff;
  media_seq(wire, &seq);
  return packet_id(flow, seq);
}

}  // namespace

namespace rules {
core::FlowRule clean() {
  return rule("clean", "audio", core::LossRegime::kClean,
              {"passthrough", {}});
}
core::FlowRule degraded(bool il) {
  return rule("degraded", "audio", core::LossRegime::kDegraded, fec64(il));
}
core::FlowRule severe() {
  return rule("severe", "audio", core::LossRegime::kSevere,
              {"fec-4-2-il", {fec_stage(4, 2), interleave_stage(4, 4)}});
}
core::FlowRule video() {
  return rule("video", "video", std::nullopt, {"uep", {{"uep-fec-encode", {}}}});
}
core::FlowRule probe(bool il) {
  return rule("probe", "probe", std::nullopt, fec64(il));
}
}  // namespace rules

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const wireless::PathLossModel model = wireless::wavelan_model();
  // Stations at 5-35 m, stratified: the seed deals the flows one each to
  // `flows` equal slices of the range and jitters each inside its slice, so
  // every seed has the same regime mix (and so the same chain mix, set-up
  // work and per-packet cost) while which station sits where, and the
  // channel's loss draws, change with it.
  std::vector<std::uint32_t> slice(w.flows);
  for (std::uint32_t f = 0; f < w.flows; ++f) slice[f] = f;
  for (std::uint32_t f = w.flows; f > 1; --f) {
    const std::uint64_t pick = mix64(seed ^ (0xd1b54a32d192ed03ULL * f)) % f;
    std::swap(slice[f - 1], slice[pick]);
  }
  for (std::uint32_t f = 0; f < w.flows; ++f) {
    const std::uint64_t r = mix64(seed * 0x100000001b3ULL + f);
    const double u = static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
    const double d = 5.0 + 30.0 * (slice[f] + u) / w.flows;
    in.distance_m.push_back(d);
    core::FlowKey key;
    key.station = f;
    if (w.media == Media::kAudio) {
      key.stream_type = "audio";
      // Regime thresholds: 2 % loss is degraded (27 m), 5 % severe (34 m).
      key.regime = core::regime_for_loss(model.loss_at(d), 0.02, 0.05);
    } else {
      // The video rule ignores the regime, so video flows are keyed without
      // one: the table then splits them evenly over the two workers at
      // every seed, and closed-loop throughput does not follow the seed's
      // regime mix through the shard hash.
      key.stream_type = "video";
    }
    in.keys.push_back(key);
    in.phase_ns.push_back(static_cast<std::int64_t>(
        mix64(r) % static_cast<std::uint64_t>(kAudioPeriodUs * 1000)));
  }
  return in;
}

Rig::Rig(const Workload& w, const Inputs& in)
    : workload_(w),
      inputs_(in),
      egress_(w.flows),
      gen_(w.flows),
      rx_(w.flows) {
  rapidware::filters::register_builtin_filters();
  changes_.reserve(4096);

  clock_ = std::make_shared<util::SimClock>();
  net_ = std::make_unique<net::SimNetwork>(clock_, in.seed);
  ap_ = net_->add_node("ap");
  wlan_ = std::make_unique<wireless::WirelessLan>(*net_, ap_);
  stations_.reserve(w.flows);
  for (std::uint32_t f = 0; f < w.flows; ++f) {
    const net::NodeId node = net_->add_node("st" + std::to_string(f));
    wlan_->add_station(node, in.distance_m[f]);
    stations_.push_back(node);
    rx_[f].socket = net_->open(node, kStationPort);
    rx_[f].downlink = net_->channel(ap_, node);
    rx_[f].decoder = std::make_unique<fec::GroupDecoder>(kDecoderWindow);
  }
  egress_socket_ = net_->open(ap_);

  classifier_ = std::make_unique<core::FlowClassifier>();
  if (w.media == Media::kAudio) {
    classifier_->add_rule(rules::clean());
    classifier_->add_rule(rules::degraded(false));
    classifier_->add_rule(rules::severe());
  } else {
    classifier_->add_rule(rules::video());
  }

  pool_ = std::make_unique<core::WorkerPool>(kWorkers);
  auto endpoints = [this](const core::FlowKey& key) {
    const std::uint32_t f = key.station;
    proxy::FlowTable::Endpoints eps;
    eps.source = std::make_shared<core::QueuePacketSource>();
    auto head = std::make_shared<core::PacketReaderEndpoint>(
        "flow-rx(" + std::to_string(f) + ")", eps.source);
    egress_[f].head = head.get();
    eps.head = std::move(head);
    auto out = std::make_shared<proxy::SocketPacketSink>(
        egress_socket_, net::Address{stations_[f], kStationPort});
    eps.tail = std::make_shared<core::PacketWriterEndpoint>(
        "flow-tx(" + std::to_string(f) + ")",
        std::make_shared<EgressSink>(*this, f, std::move(out)));
    return eps;
  };
  table_ = std::make_unique<proxy::FlowTable>(
      *classifier_, core::global_registry(), endpoints, pool_.get());

  // The control server needs the proxy's main chain; the benchmark drives
  // only the per-flow chains, so it is built and never started.
  main_chain_ = std::make_shared<core::FilterChain>(
      std::make_shared<core::PacketReaderEndpoint>(
          "socket-in", std::make_shared<core::QueuePacketSource>()),
      std::make_shared<core::PacketWriterEndpoint>(
          "socket-out", std::make_shared<proxy::SocketPacketSink>(
                            egress_socket_, net::Address{ap_, kStationPort})));
  server_ = std::make_shared<core::ControlServer>(main_chain_);
  server_->set_classifier(classifier_.get());
  server_->on_rules_changed([this] {
    const std::int64_t t0 = mono_ns();
    std::size_t n = 0;
    {
      Span s(SpanKind::kReresolve);
      n = table_->reresolve();
    }
    changes_.push_back({static_cast<double>(mono_ns() - t0) / 1e6, n});
  });
  manager_ = std::make_unique<core::ControlManager>(
      core::ControlManager::local(server_));

  obs::Scope scope(obs::registry(), kScope);
  classifier_->bind_metrics(scope.child("classifier"));
  table_->bind_metrics(scope.child("flows"));
  wlan_->bind_metrics(obs::registry(), scope.full("wlan"));
  pool_->bind_metrics(obs::registry(), scope.full("workers"));
}

Rig::~Rig() {
  obs::registry().drop(kScope);
  manager_.reset();
  server_.reset();
  main_chain_.reset();
  table_.reset();  // shuts every remaining chain down before the pool stops
  pool_->stop();
  // Sockets unbind from the network when destroyed: release them first.
  for (RxState& rx : rx_) rx.socket.reset();
  egress_socket_.reset();
}

void Rig::acquire_all() {
  for (std::uint32_t f = 0; f < workload_.flows; ++f) {
    Span s(SpanKind::kAcquire, packet_id(f, 0));
    table_->acquire(inputs_.keys[f]);
  }
}

void EgressSink::deliver(util::ByteSpan packet) {
  const std::int64_t now = mono_ns();
  Span s(SpanKind::kSink, t_spans != nullptr ? wire_id(flow_, packet) : 0);
  rig_.on_egress(flow_, packet, now);
  {
    Span e(SpanKind::kEgress);
    out_->deliver(packet);
  }
  rig_.egress(flow_).wire.fetch_add(1, std::memory_order_release);
}

void Rig::on_egress(std::uint32_t flow, util::ByteSpan packet,
                    std::int64_t now) {
  EgressState& st = egress_[flow];
  if (t_worker == nullptr) offloop_.fetch_add(1, std::memory_order_relaxed);
  util::ByteSpan media = packet;
  if (fec::looks_like_fec_packet(packet)) {
    // GroupHeader: u16 magic · u32 group · u8 index · u8 k · u8 n · u16 len.
    if (packet[6] >= packet[7]) return;  // parity
    media = packet.subspan(fec::GroupHeader::kWireSize);
  }
  std::uint32_t seq = 0;
  if (!media_seq(media, &seq)) {
    ++st.bad;
    return;
  }
  if (seq < st.next || seq - st.next >= kReorderWindow ||
      (st.ahead >> (seq - st.next) & 1) != 0) {
    ++st.bad;
    return;
  }
  st.ahead |= std::uint64_t{1} << (seq - st.next);
  while ((st.ahead & 1) != 0) {
    st.ahead >>= 1;
    ++st.next;
  }
  if (!media_matches(workload_.media, inputs_.seed, flow, seq, media)) {
    ++st.bad;
    return;
  }
  ++st.media;
  if (t_worker == nullptr || !measuring_.load(std::memory_order_relaxed)) {
    return;
  }
  // A packet held by an FEC group or interleave block is timed from the
  // ingress packet that completed the block: the newest one the flow head
  // has read.
  const std::uint64_t read = st.head->packets_read();
  const auto ref = static_cast<std::uint32_t>(read > 0 ? read - 1 : 0);
  const std::int64_t sent =
      workload_.closed_loop
          ? gen_[flow].push_ns[ref % kPushRing].load(std::memory_order_relaxed)
          : due_ns(flow, ref);
  const auto slot = static_cast<std::size_t>(
      std::max<std::int64_t>(0, now - window_start_ns_) / 1'000'000'000);
  t_worker->latency[std::min(slot, kIntervals - 1)].record(now - sent);
}

// --- Receiver ----------------------------------------------------------------

namespace {
constexpr std::uint8_t kArrived = 1;
constexpr std::uint8_t kRebuilt = 2;

std::uint8_t& seen_slot(RxState& rx, std::uint32_t seq) {
  if (seq >= rx.seen.size()) {
    rx.seen.resize(std::max<std::size_t>(seq + 1, rx.seen.size() * 2));
  }
  return rx.seen[seq];
}
}  // namespace

void Rig::check_rx(std::uint32_t flow, RxState& rx, util::ByteSpan media) {
  std::uint32_t seq = 0;
  if (!media_seq(media, &seq) ||
      !media_matches(workload_.media, inputs_.seed, flow, seq, media) ||
      (seen_slot(rx, seq) & kRebuilt) != 0) {
    ++rx.bad;
    return;
  }
  seen_slot(rx, seq) |= kRebuilt;
  ++rx.ok;
}

void Rig::on_datagram(std::uint32_t flow, RxState& rx, util::ByteSpan wire) {
  if (!fec::looks_like_fec_packet(wire)) {
    std::uint32_t seq = 0;
    if (media_seq(wire, &seq)) seen_slot(rx, seq) |= kArrived;
    check_rx(flow, rx, wire);
    return;
  }
  if (wire[6] >= wire[7]) {
    ++rx.parity;
  } else {
    std::uint32_t seq = 0;
    if (media_seq(wire.subspan(fec::GroupHeader::kWireSize), &seq)) {
      seen_slot(rx, seq) |= kArrived;
    }
  }
  std::vector<util::Bytes> rebuilt;
  try {
    Span s(SpanKind::kDecode, t_spans != nullptr ? wire_id(flow, wire) : 0);
    rebuilt = rx.decoder->add(wire);
  } catch (const std::exception&) {
    // The egress check already proved this packet byte-exact, so a throw
    // is the decoder refusing it: after a splice the new encoder's group
    // ids restart and can collide with a group still pending from the old
    // one ("inconsistent group parameters"). Counted as a decoder drop.
    ++rx.rejected;
    return;
  }
  for (const auto& media : rebuilt) check_rx(flow, rx, media);
}

Rig::Loss Rig::loss(std::uint32_t flow) const {
  const RxState& rx = rx_[flow];
  Loss l;
  for (std::uint32_t seq = 0; seq < gen_[flow].pushed; ++seq) {
    const std::uint8_t v = seq < rx.seen.size() ? rx.seen[seq] : 0;
    if ((v & kRebuilt) != 0) continue;
    if ((v & kArrived) != 0) {
      ++l.decoder;
    } else {
      ++l.channel;
    }
  }
  return l;
}

void Rig::receive_sweep() {
  for (std::uint32_t f = 0; f < workload_.flows; ++f) {
    RxState& rx = rx_[f];
    const std::uint64_t wire =
        egress_[f].wire.load(std::memory_order_acquire);
    if (wire == rx.seen_wire) continue;
    rx.seen_wire = wire;
    // Datagrams queued at the station: every egress packet counted in
    // `wire` has left the channel model, so wire minus the channel's drops
    // is a lower bound. Reading exactly that many never waits on an empty
    // socket, which costs a timed futex wait per flow.
    const net::ChannelStats ch = rx.downlink->stats();
    const std::uint64_t gone = ch.dropped_loss + ch.dropped_queue;
    const std::uint64_t queued =
        wire > gone + rx.datagrams ? wire - gone - rx.datagrams : 0;
    std::uint64_t got = 0;
    for (; got < queued; ++got) {
      auto d = rx.socket->recv(0);
      if (!d) break;
      on_datagram(f, rx, d->payload);
    }
    rx.datagrams += got;
    // Everything the channel dropped counts as read: the lag is what waits
    // in the station queues.
    received_.store(received_.load(std::memory_order_relaxed) + got +
                        (gone - rx.dropped_seen),
                    std::memory_order_relaxed);
    rx.dropped_seen = gone;
  }
}

std::uint64_t Rig::receiver_lag() const {
  std::uint64_t wire = 0;
  for (const EgressState& eg : egress_) {
    wire += eg.wire.load(std::memory_order_relaxed);
  }
  const std::uint64_t read = received_.load(std::memory_order_relaxed);
  return wire > read ? wire - read : 0;
}

void Rig::receive_final() {
  for (std::uint32_t f = 0; f < workload_.flows; ++f) {
    RxState& rx = rx_[f];
    while (auto d = rx.socket->recv(0)) {
      ++rx.datagrams;
      on_datagram(f, rx, d->payload);
    }
    for (const auto& media : rx.decoder->flush()) check_rx(f, rx, media);
  }
}

// --- Control plane -------------------------------------------------------------

double Rig::rule_add(const core::FlowRule& rule) {
  const std::int64_t t0 = mono_ns();
  try {
    Span s(SpanKind::kRuleAdd);
    manager_->rule_add(rule);
  } catch (const core::ControlError&) {
    return -1;
  }
  return static_cast<double>(mono_ns() - t0) / 1e6;
}

double Rig::scrape_stats() {
  const std::int64_t t0 = mono_ns();
  std::string text;
  try {
    Span s(SpanKind::kStats);
    text = manager_->stats_text();
  } catch (const core::ControlError&) {
    return -1;
  }
  const double ms = static_cast<double>(mono_ns() - t0) / 1e6;
  // Every station publishes its wireless rows; a scrape missing them is a
  // control-plane failure.
  const std::string last_station = std::string(kScope) + "/wlan/st" +
                                   std::to_string(workload_.flows - 1) +
                                   "/dropped_queue=";
  if (text.rfind("proto_version=", 0) != 0 ||
      text.find(last_station) == std::string::npos) {
    return -1;
  }
  return ms;
}

net::ChannelStats Rig::channel_totals() {
  net::ChannelStats total;
  for (const net::NodeId node : stations_) {
    const net::ChannelStats s = wlan_->downlink_stats(node);
    total.attempted += s.attempted;
    total.dropped_loss += s.dropped_loss;
    total.dropped_queue += s.dropped_queue;
  }
  return total;
}

}  // namespace perfbench
