// The global lock-acquisition order, as data.
//
// Every named rw::Mutex in src/ is constructed with a rank from this table.
// The rule enforced by the runtime checker (-DRW_DEADLOCK_CHECK=ON,
// src/util/deadlock.h) is strict monotonicity: a thread may only acquire a
// lock whose rank is GREATER than every ranked lock it already holds.
// Equal rank while one is held is an error too — that is how a reentrant
// acquire of the same mutex (guaranteed deadlock on std::mutex) and an
// unordered pair of same-subsystem locks are both caught.
//
// Ranks ascend from the adaptation plane (outermost: raplets hold their
// state lock across whole control-protocol round trips) down through flow
// management, the chain, the streams, observability, the network, virtual
// time, and finally the leaf utilities that any layer may call. Gaps are
// deliberate: new locks slot in without renumbering.
//
// The same table is parsed by tools/lock_graph.py, which cross-checks the
// statically-derived acquisition DAG (tools/lock_order.json) against these
// declared ranks — so an edit here that contradicts real nesting fails CI
// before it can deadlock anything. The rationale for each band lives in
// docs/static_analysis.md ("The lock-rank table").
#pragma once

namespace rw::lockrank {

/// Locks outside the ranked order (tests, examples, scratch tooling).
/// They still participate in reentrancy and cycle detection, but no
/// rank-monotonicity check applies to them.
inline constexpr int kUnranked = -1;

// --- Adaptation plane (outermost) ------------------------------------------
inline constexpr int kRapletResponder = 110;  // TranscodeResponder, HandoffCoordinator
inline constexpr int kFecController = 120;    // AdaptiveFecController
inline constexpr int kPavilionSession = 130;  // SessionMember
inline constexpr int kPavilionFloor = 140;    // FloorControl
inline constexpr int kPavilionWeb = 150;      // WebServer

// --- Flow-management plane --------------------------------------------------
inline constexpr int kFlowShard = 205;       // proxy::FlowTable per-worker shard
inline constexpr int kFlowClassifier = 210;  // core::FlowClassifier
inline constexpr int kSpecTable = 220;       // core::FilterSpecTable
inline constexpr int kFilterRegistry = 230;  // core::FilterRegistry
inline constexpr int kReconfigBin = 240;     // core::FilterContainer

// --- Chain + data plane ------------------------------------------------------
// The observability registry sits INSIDE this band: FilterChain::bind_metrics
// creates metrics (registry lock) under the chain lock, while a registry
// snapshot renders metrics (TraceRing lock) and runs gauge callbacks that
// take stream/wlan/pool locks — so chain < registry < trace < streams.
inline constexpr int kFilterChain = 300;     // core::FilterChain
inline constexpr int kObsRegistry = 320;     // obs::Registry
inline constexpr int kObsTrace = 340;        // obs::TraceRing
inline constexpr int kPacketQueue = 350;     // core::QueuePacketSource
inline constexpr int kPacketCollector = 360; // core::CollectingPacketSink
inline constexpr int kStreamOutput = 400;    // DetachableOutputStream::mu_
inline constexpr int kStreamInput = 410;     // detail::InputState::mu (always after its writer)
// Event-driven dispatch sits BELOW the streams: readiness callbacks fire
// under a stream lock and post to the owning worker, so both event locks
// must be acquirable while kStreamOutput/kStreamInput are held. The filter
// event-core lock (join/finish handshake) is also taken under kFilterChain
// during splices, hence > 410 would be wrong for it — it nests only under
// the chain lock and never under a stream lock, but keeping it between the
// streams and the loop keeps the band readable.
inline constexpr int kFilterEvent = 430;     // core::detail::FilterEventCore
inline constexpr int kEventLoop = 450;       // core::EventLoop task queue

// --- Observability sinks -----------------------------------------------------
inline constexpr int kStatsLog = 500;  // obs::StatsLogSink (snapshots outside mu_)

// --- Egress + network --------------------------------------------------------
inline constexpr int kSocketSink = 590;  // proxy::SocketPacketSink (holds mu_ across send)
inline constexpr int kWlan = 600;        // wireless::WirelessLan
inline constexpr int kSimNetwork = 610;  // net::SimNetwork (routes under its lock)
inline constexpr int kSocket = 620;      // net::SimSocket receive queue (its ready watcher posts to kEventLoop, so it fires after unlocking)
inline constexpr int kLink = 630;        // net::SharedLink
inline constexpr int kLinkFaults = 640;  // testing::LinkFaults (wraps a LossModel)
inline constexpr int kLossModel = 650;   // net loss models (never nested with each other)
inline constexpr int kFaultInjector = 660;  // testing::FaultInjector RNG (leaf; called under link/loss locks)

// --- Virtual time ------------------------------------------------------------
inline constexpr int kPeriodicTask = 700;  // util::PeriodicTask (schedules under its lock)
inline constexpr int kSimClock = 710;      // util::SimClock event queue

// --- Leaf utilities (any layer may call into these) --------------------------
inline constexpr int kBufferPoolLocal = 790;  // worker-local BufferPool arena (nests under the global pool for batch rebalance)
inline constexpr int kBufferPool = 800;       // util::BufferPool (process-wide parent)
inline constexpr int kLogging = 900;     // util logging emit lock

}  // namespace rw::lockrank
