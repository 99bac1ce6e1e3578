// The proxy path under test, assembled from public API the way
// proxy::Proxy wires it, but with its FlowTable on a 2-worker
// core::WorkerPool:
//
//   FlowTable::push -> per-flow FilterChain on its worker -> EgressSink
//   -> proxy::SocketPacketSink -> SimNetwork::route -> WirelessLan channel
//   -> station SimSocket -> receiver fec::GroupDecoder + media check
//
// The benchmark's own code sits only at the two ends: EgressSink checks and
// times every packet the chain hands to egress before forwarding it to the
// real SocketPacketSink, and the receiver drains the station sockets.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/control.h"
#include "core/endpoint.h"
#include "core/flow_classifier.h"
#include "core/worker_pool.h"
#include "fec/fec_group.h"
#include "harness.h"
#include "net/sim_network.h"
#include "proxy/flow_table.h"
#include "proxy/socket_endpoints.h"
#include "util/clock.h"
#include "wireless/wlan.h"

namespace perfbench {

namespace core = rapidware::core;
namespace fec = rapidware::fec;
namespace net = rapidware::net;
namespace obs = rapidware::obs;
namespace proxy = rapidware::proxy;
namespace util = rapidware::util;
namespace wireless = rapidware::wireless;

inline constexpr std::size_t kWorkers = 2;
/// Frames a closed-loop flow may have pushed but not yet read by its head.
inline constexpr std::uint32_t kInFlight = 4;
inline constexpr std::size_t kPushRing = 8;  // > kInFlight
inline constexpr std::uint32_t kReorderWindow = 64;

struct Workload {
  std::string name;
  Media media;
  std::uint32_t flows;
  bool closed_loop;
  bool reconfig;
};

/// Seed-drawn inputs of one run; generated before set-up is timed.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<double> distance_m;      // per flow
  std::vector<core::FlowKey> keys;     // per flow
  std::vector<std::int64_t> phase_ns;  // open loop: offset in the period
};
Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Egress-side state of one flow. Written only on the worker hosting the
/// flow's chain (chain affinity), except `wire`, which the receiver polls.
struct alignas(64) EgressState {
  const core::PacketReaderEndpoint* head = nullptr;
  // Exactly-once tracking: every seq below `next` has been seen; bit i of
  // `ahead` marks seq next + i. Interleave blocks and UEP's per-class
  // groups release media out of flow order, but never more than
  // kReorderWindow packets ahead of the oldest one still held.
  std::uint32_t next = 0;
  std::uint64_t ahead = 0;
  std::uint64_t media = 0;  // media packets handed to egress
  std::uint64_t bad = 0;    // out of order, duplicated or corrupt
  std::atomic<std::uint64_t> wire{0};
};

/// Generator-side state of one flow.
struct alignas(64) GenState {
  std::uint32_t pushed = 0;
  // Closed loop: push instants of the last kPushRing frames, by seq.
  std::array<std::atomic<std::int64_t>, kPushRing> push_ns{};
};

/// Receiver-side state of one flow (receiver thread only).
struct RxState {
  std::shared_ptr<net::SimSocket> socket;
  net::Channel* downlink = nullptr;  // AP -> station, owned by the network
  std::uint64_t seen_wire = 0;
  std::uint64_t datagrams = 0;     // received so far
  std::uint64_t dropped_seen = 0;  // channel drops already counted as read
  std::unique_ptr<fec::GroupDecoder> decoder;
  // Flags by media seq: the packet's own wire packet reached the station,
  // and the receiver rebuilt it byte-exact. Splits every missing packet into
  // lost on the channel (neither) or dropped by the decoder (arrived only).
  std::vector<std::uint8_t> seen;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;       // rebuilt corrupt or twice
  std::uint64_t rejected = 0;  // wire packets GroupDecoder::add threw on
  std::uint64_t parity = 0;
};

/// Latency is kept per second of the window (the last slot also takes the
/// drain after it), so percentiles can be read per interval.
inline constexpr std::size_t kIntervals = 61;

/// Per-worker harness state, installed on the worker by a posted task.
struct WorkerCtx {
  std::vector<LatencyHist> latency = std::vector<LatencyHist>(kIntervals);
  std::unique_ptr<SpanBuffer> spans;
  std::int64_t cpu_ns = 0;
  std::int64_t nvcsw = 0;
  std::uint64_t allocs = 0;
};

class Rig {
 public:
  /// Builds the network, stations, rules, pool, flow table and control
  /// server: everything set-up time covers except acquire_all().
  Rig(const Workload& w, const Inputs& in);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Instantiates and starts every flow's chain via FlowTable::acquire.
  void acquire_all();

  // --- Data path -----------------------------------------------------------
  proxy::FlowTable& table() { return *table_; }
  core::WorkerPool& pool() { return *pool_; }
  util::SimClock& clock() { return *clock_; }
  EgressState& egress(std::uint32_t f) { return egress_[f]; }
  GenState& gen(std::uint32_t f) { return gen_[f]; }
  RxState& rx(std::uint32_t f) { return rx_[f]; }
  std::uint32_t flows() const { return workload_.flows; }

  /// Called by EgressSink on the flow's worker.
  void on_egress(std::uint32_t flow, util::ByteSpan packet, std::int64_t now);

  /// Open loop: scheduled send instant of the flow's packet `seq`.
  std::int64_t due_ns(std::uint32_t flow, std::uint32_t seq) const {
    return t0_ns_ + inputs_.phase_ns[flow] +
           static_cast<std::int64_t>(seq) * kAudioPeriodUs * 1000;
  }
  void set_t0(std::int64_t t0) { t0_ns_ = t0; }
  void set_window_start(std::int64_t ns) { window_start_ns_ = ns; }

  /// Latency samples are taken only while measuring.
  void set_measuring(bool on) { measuring_.store(on, std::memory_order_release); }
  std::uint64_t offloop_deliveries() const {
    return offloop_.load(std::memory_order_relaxed);
  }

  // --- Receiver ------------------------------------------------------------
  /// Drains every station socket whose flow has new egress traffic.
  void receive_sweep();
  /// Egress wire packets the receiver has not read yet (any thread).
  std::uint64_t receiver_lag() const;
  /// End of run: drains every socket and flushes every decoder.
  void receive_final();

  // --- Control plane -------------------------------------------------------
  /// RULE_ADD through core::ControlManager; returns the round trip in ms,
  /// or a negative value when the server answered with an error.
  double rule_add(const core::FlowRule& rule);
  /// STATS over the whole registry; returns wall ms, negative on error.
  double scrape_stats();

  struct ChangeSample {
    double reresolve_ms;
    std::size_t reconfigured;
  };
  /// Filled by the on_rules_changed hook, on the thread issuing RULE_ADD.
  std::vector<ChangeSample>& change_samples() { return changes_; }

  /// Media packets of `flow` the receiver did not rebuild, split by where
  /// they were lost (valid once receive_final() ran).
  struct Loss {
    std::uint64_t channel = 0;  // never reached the station, not recovered
    std::uint64_t decoder = 0;  // reached it, dropped by the decoder
  };
  Loss loss(std::uint32_t flow) const;

  /// Σ ChannelStats over every station downlink.
  net::ChannelStats channel_totals();

 private:
  void check_rx(std::uint32_t flow, RxState& rx, util::ByteSpan media);
  void on_datagram(std::uint32_t flow, RxState& rx, util::ByteSpan wire);

  const Workload workload_;
  const Inputs& inputs_;
  std::int64_t t0_ns_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::atomic<bool> measuring_{false};
  std::atomic<std::uint64_t> offloop_{0};
  std::atomic<std::uint64_t> received_{0};

  std::vector<EgressState> egress_;
  std::vector<GenState> gen_;
  std::vector<RxState> rx_;
  std::vector<ChangeSample> changes_;

  std::shared_ptr<util::SimClock> clock_;
  std::unique_ptr<net::SimNetwork> net_;
  net::NodeId ap_ = 0;
  std::unique_ptr<wireless::WirelessLan> wlan_;
  std::vector<net::NodeId> stations_;
  std::shared_ptr<net::SimSocket> egress_socket_;
  std::unique_ptr<core::FlowClassifier> classifier_;
  std::unique_ptr<core::WorkerPool> pool_;
  std::unique_ptr<proxy::FlowTable> table_;
  std::shared_ptr<core::FilterChain> main_chain_;
  std::shared_ptr<core::ControlServer> server_;
  std::unique_ptr<core::ControlManager> manager_;
};

/// The benchmark's egress sink: checks and times each packet, then hands it
/// to the real proxy::SocketPacketSink.
class EgressSink final : public core::PacketSink {
 public:
  EgressSink(Rig& rig, std::uint32_t flow,
             std::shared_ptr<proxy::SocketPacketSink> out)
      : rig_(rig), flow_(flow), out_(std::move(out)) {}

  void deliver(util::ByteSpan packet) override;

 private:
  Rig& rig_;
  const std::uint32_t flow_;
  const std::shared_ptr<proxy::SocketPacketSink> out_;
};

/// The calling worker's harness state; null off the workers.
extern constinit thread_local WorkerCtx* t_worker;

/// Rule tables of the workloads.
namespace rules {
core::FlowRule clean();
core::FlowRule degraded(bool interleave);
core::FlowRule severe();
core::FlowRule video();
/// Matches no flow: a change that re-resolves every flow and splices none.
core::FlowRule probe(bool interleave);
}  // namespace rules

}  // namespace perfbench
