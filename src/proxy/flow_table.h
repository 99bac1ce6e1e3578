// FlowTable: the per-flow chain map behind a classifying proxy.
//
// One proxy used to run ONE statically-managed chain for all traffic. The
// flow table turns that into "one chain per flow, from shared specs": the
// first packet of a flow resolves its FlowKey through the FlowClassifier,
// instantiates a FilterChain from the resolved (interned) ChainSpec, and
// starts it; flow expiry ends the chain (FilterChain::shutdown), which
// delivers everything in flight first. Flows holding the same spec share
// the ChainSpec object (flyweight) but own their chains — chains hold live
// per-flow state (FEC groups, compression dictionaries).
//
// Worker model (docs/data_plane.md): the table shards its flow map one
// shard per worker of its core::WorkerPool. A flow's key hashes to a
// shard, and the flow's whole chain is hosted on that shard's worker
// (chain affinity): chains*filters logical flows multiplexed onto N event
// loops. Each worker also runs a periodic idle sweep on its own shard: a
// flow that sees no push()/acquire() activity for the idle timeout is
// evicted — its chain is shut down asynchronously
// (FilterChain::begin_shutdown) and reaped once every member's final drive
// has run, without the sweep ever blocking the worker.
//
// Live rule updates: after the control server applies RULE_ADD / RULE_DEL
// it calls reresolve(), which re-runs every active flow's key against the
// new table. A flow whose resolved spec is pointer-identical keeps its
// running chain untouched; a changed flow is reconfigured IN PLACE on the
// live stream — new stages built first, old stages removed back-to-front
// (each flushes via the pause/soft-EOF protocol), new stages inserted
// front-to-back — under the same pause/reconnect byte-exactness contract
// every chain operation obeys (no packet is lost, duplicated, or reordered
// across the swap; asserted by tests/flow_classifier_test.cpp under
// randomized stress schedules). reresolve() splices outside the shard
// lock, with the flow pinned against the idle sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "core/flow_classifier.h"
#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::proxy {

class FlowTable {
 public:
  /// Endpoint pair a new flow chain is built between, and the queue that
  /// feeds its head (push() uses it). None may be null.
  struct Endpoints {
    std::shared_ptr<core::Filter> head;
    std::shared_ptr<core::Filter> tail;
    std::shared_ptr<core::QueuePacketSource> source;
  };
  using EndpointFactory = std::function<Endpoints(const core::FlowKey&)>;

  /// Factory building each flow a QueuePacketSource-fed head and a writer
  /// tail delivering into the shared `sink` (a proxy's egress).
  static EndpointFactory queue_endpoints(
      std::shared_ptr<core::PacketSink> sink);

  /// Idle sweep default: a flow untouched for this long is evicted.
  static constexpr std::uint64_t kDefaultIdleTimeoutMs = 30'000;

  /// Flows shard across the workers of `pool` (one shard per worker; null
  /// means core::default_worker_pool()), each chain is hosted whole on its
  /// shard's worker, and a per-worker timer evicts flows idle longer than
  /// `idle_timeout_ms` (0: never). The pool must outlive the table and
  /// still be running when the table is destroyed: the destructor syncs
  /// every worker, which throws std::logic_error on a stopped pool.
  FlowTable(core::FlowClassifier& classifier, core::FilterRegistry& registry,
            EndpointFactory endpoints, core::WorkerPool* pool = nullptr,
            std::uint64_t idle_timeout_ms = kDefaultIdleTimeoutMs);
  ~FlowTable();

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// The flow's chain, instantiated from the classifier-resolved spec and
  /// started on first use. Counts as flow activity for the idle sweep.
  std::shared_ptr<core::FilterChain> acquire(const core::FlowKey& key);

  /// The flow's chain if it exists; null otherwise (never instantiates).
  std::shared_ptr<core::FilterChain> find(const core::FlowKey& key) const;

  /// First-packet path: acquire(key), then push the packet into the flow's
  /// queue source.
  void push(const core::FlowKey& key, util::Bytes packet);

  /// The interned spec the flow currently runs; null for unknown flows.
  core::ChainSpecRef spec_of(const core::FlowKey& key) const;

  /// Ends the flow: shuts its chain down, which delivers every packet
  /// already pushed, and forgets it. False if the flow is unknown.
  bool expire(const core::FlowKey& key);

  /// Re-resolves every active flow against the current rule table and
  /// reconfigures the chains whose spec changed (see header comment). A
  /// splice that throws is logged and skipped; returns the splices that
  /// completed.
  std::size_t reresolve();

  std::size_t size() const;
  std::vector<core::FlowKey> keys() const;

  /// Lifetime counters (also published by bind_metrics).
  std::uint64_t created() const;
  std::uint64_t expired() const;
  std::uint64_t reconfigured() const;
  /// Flows removed by the idle sweep (not counted in expired()).
  std::uint64_t flows_evicted() const;

  /// The worker pool flows are sharded over.
  core::WorkerPool* pool() const noexcept { return pool_; }

  /// Shuts every flow's chain down and forgets it.
  void shutdown_all();

  /// Publishes the "flows" gauge and the created/expired/reconfigured/
  /// evicted counts under `scope`, until the table is destroyed.
  void bind_metrics(obs::Scope scope);

 private:
  struct Flow {
    std::shared_ptr<core::FilterChain> chain;
    std::shared_ptr<core::QueuePacketSource> source;
    core::ChainSpecRef spec;
    // Idle-sweep bookkeeping: push()/acquire() bump `activity`; the sweep
    // compares it against what it saw last round. Two consecutive quiet
    // sweeps (= one idle timeout, sweeps run every timeout/2) evict.
    std::uint64_t activity = 0;
    std::uint64_t seen_activity = 0;
    int idle_sweeps = 0;
    // Pinned while reresolve() splices the chain outside the shard lock:
    // the sweep's begin_shutdown() would block this worker on the chain
    // mutex, which the splice holds while it joins a stage on this worker.
    bool reconfiguring = false;
  };

  /// One per worker. Operations on different shards never contend; a
  /// shard's flows all live on the same worker as its sweep timer.
  struct Shard {
    mutable rw::Mutex mu{"proxy/flow_shard", rw::lockrank::kFlowShard};
    std::map<core::FlowKey, Flow> flows RW_GUARDED_BY(mu);
    // Evicted flows whose chains are still running their final drives;
    // reaped by the next sweep once FilterChain::finished().
    std::vector<Flow> draining RW_GUARDED_BY(mu);
    // Control-plane only (created in the constructor, stopped in the
    // destructor before any shard state is torn down).
    std::unique_ptr<util::PeriodicTask> sweeper;
  };

  std::size_t shard_of(const core::FlowKey& key) const;
  /// The flow for `key` in shard `idx`, created and started on first use;
  /// counts as activity for the idle sweep.
  Flow& flow_locked(Shard& shard, std::size_t idx, const core::FlowKey& key)
      RW_REQUIRES(shard.mu);
  /// The per-worker timer body: evict idle flows, reap finished drains.
  /// Runs on shard `idx`'s worker; never blocks (try_lock, skip on miss,
  /// and pinned flows are passed over).
  void sweep_shard(std::size_t idx);

  core::FlowClassifier& classifier_;
  core::FilterRegistry& registry_;
  const EndpointFactory endpoints_;
  core::WorkerPool* const pool_;
  const std::uint64_t idle_timeout_ms_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Lifecycle counts, published by bind_metrics() as lock-free callbacks.
  // `flows_` changes under the shard lock where a flow enters or leaves.
  std::atomic<std::uint64_t> flows_{0};
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> reconfigured_{0};
  std::atomic<std::uint64_t> evicted_{0};

  // Control-plane only: set by bind_metrics(), dropped by the destructor.
  std::optional<obs::Scope> metrics_;
};

}  // namespace rapidware::proxy
