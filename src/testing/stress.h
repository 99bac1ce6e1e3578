// Schedule-randomizing stress driver for the detachable-stream layer.
//
// Two drivers, both seeded and reproducible:
//
//  * run_pipe_schedule() — one bare DIS/DOS pair with dedicated writer and
//    reader threads, polling try_write_some / poll_read_borrow as a drive
//    does and yielding on would-block, while the calling (control) thread
//    runs pause() / reconnect() cycles against the live pipe. This hammers
//    the paper's Section 4 protocol at the smallest scale.
//
//  * StressDriver — a full FilterChain between the packet endpoints every
//    real chain runs: a SequencePacketSource slices the sequence-stamped
//    stream into packets of seed-drawn sizes, a SequencePacketSink checks
//    what the writer endpoint delivers, and each consults its own fault
//    injector. In between run small-ring byte pass-through filters, which
//    cut the frames at arbitrary byte offsets. While data flows, the
//    control thread executes a random schedule of insert / remove /
//    reorder / pause+reconnect / set_param operations, then the chain is
//    drained and the checker proves the delivered stream is byte-exact.
//
// Determinism: the control schedule and every injector's decision stream
// derive from the schedule seed alone, so a failing seed replays the same
// schedule (thread interleaving still varies — that is the point — but the
// operations, fault decisions, and verdict oracle are fixed). Failures
// report the schedule seed and the executed operation list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "testing/fault_injector.h"

namespace rapidware::obs {
class Registry;
}

namespace rapidware::core {
class WorkerPool;
}

namespace rapidware::testing {

// ---------------------------------------------------------------------------
// Bare-pipe stress

struct PipeStressOptions {
  std::uint64_t total_bytes = 64 * 1024;
  std::size_t ring_capacity = 512;  // small ring: constant backpressure
  int pause_cycles = 16;            // pause()+reconnect() rounds to attempt
  FaultPlan faults;                 // delay knobs apply to all three threads
};

struct PipeStressResult {
  std::uint64_t seed = 0;
  std::uint64_t bytes_delivered = 0;
  int pauses_executed = 0;
  bool ok = false;
  std::string error;
};

/// Runs one bare-pipe schedule on the calling thread (spawns the writer and
/// reader internally). Never intentionally loses a byte: ok means the
/// checker saw exactly total_bytes, all matching the pattern.
PipeStressResult run_pipe_schedule(std::uint64_t seed,
                                   const PipeStressOptions& opts = {});

// ---------------------------------------------------------------------------
// Chain stress

struct StressOptions {
  std::uint64_t seed = 0x5eedfeedULL;
  int schedules = 500;
  /// Control operations attempted per schedule.
  int ops_per_schedule = 10;
  std::uint64_t bytes_per_schedule = 8 * 1024;
  /// Ring capacity of the tail endpoint (the pass-through filters draw
  /// 256, 512 or 1024 bytes); small so every pipe in the chain exercises
  /// its backpressure paths.
  std::size_t ring_capacity = 768;
  std::size_t max_filters = 4;
  FaultPlan faults;
  /// Wall-clock pacing between control ops. Default off: the pacing draw
  /// still happens (so the op schedule derived from a seed is identical in
  /// both modes — pinned regression seeds stay valid), but the thread
  /// yields instead of sleeping out the drawn gap. The full
  /// 500-schedule sweep then completes in seconds; the TSan smoke subset
  /// turns this (and faults.wall_delays) back on for real preemption.
  bool wall_pacing = false;
  /// Abort the process (dumping the schedule seed) if a schedule makes no
  /// progress for this long — a deadlock is otherwise an opaque CI timeout.
  std::int64_t stall_timeout_ms = 120'000;
  /// When non-null, every schedule binds its chain into this registry under
  /// metrics_scope (the chain unbinds as it tears down), so tests can race
  /// Registry::snapshot() readers against live insert/remove/reorder
  /// schedules — the metrics layer's own concurrency stress.
  obs::Registry* metrics = nullptr;
  std::string metrics_scope = "stress/chain";
  /// The pool every schedule's chain is hosted on (least-loaded worker per
  /// chain); null means core::default_worker_pool(), as for any chain
  /// started without host_on().
  core::WorkerPool* pool = nullptr;
};

struct ScheduleResult {
  std::uint64_t schedule_seed = 0;
  std::vector<std::string> ops;  // executed control ops, in order
  /// Ops after which the sink still lacked bytes: they ran against a
  /// stream in flight, not a drained one.
  std::uint64_t ops_in_flight = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t faults_fired = 0;  // injector events that actually happened
  bool ok = false;
  std::string error;

  std::string describe() const;
};

struct StressSummary {
  int schedules_run = 0;
  int failures = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t control_ops = 0;
  std::uint64_t ops_in_flight = 0;
  std::uint64_t faults_fired = 0;
  std::vector<ScheduleResult> failed;  // capped at 8 entries

  std::string describe() const;
};

class StressDriver {
 public:
  explicit StressDriver(StressOptions opts);

  /// Runs one schedule; fully self-contained, reusable across calls.
  ScheduleResult run_schedule(std::uint64_t schedule_seed);

  /// Runs opts.schedules schedules with seeds derived from opts.seed, under
  /// a stall watchdog.
  StressSummary run_all();

  const StressOptions& options() const noexcept { return opts_; }

 private:
  StressOptions opts_;
};

}  // namespace rapidware::testing
