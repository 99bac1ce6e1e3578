#include "proxy/flow_table.h"

#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace rapidware::proxy {

FlowTable::EndpointFactory FlowTable::queue_endpoints(
    std::shared_ptr<core::PacketSink> sink) {
  if (!sink) {
    throw std::invalid_argument("FlowTable::queue_endpoints: null sink");
  }
  return [sink = std::move(sink)](const core::FlowKey& key) {
    Endpoints eps;
    eps.source = std::make_shared<core::QueuePacketSource>();
    eps.head = std::make_shared<core::PacketReaderEndpoint>(
        "flow-rx(" + std::to_string(key.station) + ")", eps.source);
    eps.tail = std::make_shared<core::PacketWriterEndpoint>(
        "flow-tx(" + std::to_string(key.station) + ")", sink);
    return eps;
  };
}

FlowTable::FlowTable(core::FlowClassifier& classifier,
                     core::FilterRegistry& registry, EndpointFactory endpoints,
                     core::WorkerPool* pool, std::uint64_t idle_timeout_ms)
    : classifier_(classifier),
      registry_(registry),
      endpoints_(std::move(endpoints)),
      pool_(pool != nullptr ? pool : &core::default_worker_pool()),
      idle_timeout_ms_(idle_timeout_ms) {
  if (!endpoints_) {
    throw std::invalid_argument("FlowTable: null endpoint factory");
  }
  const std::size_t n = pool_->size();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (idle_timeout_ms_ > 0) {
    // Sweep at half the timeout on each shard's own worker clock: two
    // consecutive quiet sweeps span at least one full timeout.
    const util::Micros period =
        static_cast<util::Micros>(idle_timeout_ms_ * 1000 / 2);
    for (std::size_t i = 0; i < n; ++i) {
      shards_[i]->sweeper = std::make_unique<util::PeriodicTask>(
          pool_->worker(i).clock(), period > 0 ? period : 1,
          [this, i](util::Micros) { sweep_shard(i); });
      pool_->worker(i).wake();  // parked loops re-read the timer horizon
    }
  }
}

FlowTable::~FlowTable() {
  // Teardown order matters: stop the sweep timers, then barrier every
  // worker so no in-flight tick still references this table, and only then
  // tear the flows down.
  for (auto& shard : shards_) {
    if (shard->sweeper) shard->sweeper->stop();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) pool_->worker(i).sync();
  if (metrics_) metrics_->drop();  // the callbacks read this table
  shutdown_all();
}

std::size_t FlowTable::shard_of(const core::FlowKey& key) const {
  std::size_t h = std::hash<std::uint32_t>{}(key.station);
  h = h * 31 + std::hash<std::string>{}(key.stream_type);
  h = h * 31 + static_cast<std::size_t>(key.regime);
  return h % shards_.size();
}

FlowTable::Flow& FlowTable::flow_locked(Shard& shard, std::size_t idx,
                                        const core::FlowKey& key) {
  shard.mu.assert_held();
  if (auto it = shard.flows.find(key); it != shard.flows.end()) {
    ++it->second.activity;
    return it->second;
  }
  Flow flow;
  flow.spec = classifier_.resolve(key);
  Endpoints eps = endpoints_(key);
  if (!eps.head || !eps.tail || !eps.source) {
    throw std::invalid_argument("FlowTable: endpoint factory returned null");
  }
  flow.source = std::move(eps.source);
  flow.chain = std::make_shared<core::FilterChain>(std::move(eps.head),
                                                   std::move(eps.tail));
  for (auto& filter : core::instantiate_chain(*flow.spec, registry_)) {
    flow.chain->append(std::move(filter));
  }
  // Chain affinity: the whole chain lives on this shard's worker, so its
  // members multiplex with every other chain of the shard instead of each
  // holding an OS thread.
  flow.chain->host_on(pool_->worker(idx));
  flow.chain->start();
  flow.activity = 1;  // creation counts as activity
  Flow& added = shard.flows.emplace(key, std::move(flow)).first->second;
  flows_.fetch_add(1, std::memory_order_relaxed);
  created_.fetch_add(1, std::memory_order_relaxed);
  return added;
}

std::shared_ptr<core::FilterChain> FlowTable::acquire(
    const core::FlowKey& key) {
  const std::size_t idx = shard_of(key);
  Shard& shard = *shards_[idx];
  rw::MutexLock lk(shard.mu);
  return flow_locked(shard, idx, key).chain;
}

std::shared_ptr<core::FilterChain> FlowTable::find(
    const core::FlowKey& key) const {
  const Shard& shard = *shards_[shard_of(key)];
  rw::MutexLock lk(shard.mu);
  auto it = shard.flows.find(key);
  return it == shard.flows.end() ? nullptr : it->second.chain;
}

void FlowTable::push(const core::FlowKey& key, util::Bytes packet) {
  const std::size_t idx = shard_of(key);
  Shard& shard = *shards_[idx];
  std::shared_ptr<core::QueuePacketSource> source;
  {
    rw::MutexLock lk(shard.mu);
    source = flow_locked(shard, idx, key).source;
  }
  // Push outside the shard lock: the queue is unbounded and never blocks,
  // and reresolve() splices outside the lock, so no feeder of this shard
  // waits behind a reconfigure.
  source->push(std::move(packet));
}

core::ChainSpecRef FlowTable::spec_of(const core::FlowKey& key) const {
  const Shard& shard = *shards_[shard_of(key)];
  rw::MutexLock lk(shard.mu);
  auto it = shard.flows.find(key);
  return it == shard.flows.end() ? nullptr : it->second.spec;
}

bool FlowTable::expire(const core::FlowKey& key) {
  Shard& shard = *shards_[shard_of(key)];
  Flow flow;
  {
    rw::MutexLock lk(shard.mu);
    auto it = shard.flows.find(key);
    if (it == shard.flows.end()) return false;
    flow = std::move(it->second);
    shard.flows.erase(it);
    flows_.fetch_sub(1, std::memory_order_relaxed);
  }
  expired_.fetch_add(1, std::memory_order_relaxed);
  // Outside the lock: teardown waits for in-flight packets to flush.
  flow.chain->shutdown();
  return true;
}

std::size_t FlowTable::reresolve() {
  std::size_t changed = 0;
  // One shard at a time, its lock held only to decide and to record: each
  // changed flow is pinned under it and spliced outside it. Passes repeat
  // while the rules moved, since a racing reresolve() skips pinned flows.
  for (auto& shard : shards_) {
    std::uint64_t version = 0;
    do {
      version = classifier_.version();
      std::vector<std::tuple<core::FlowKey, std::shared_ptr<core::FilterChain>,
                             core::ChainSpecRef>> pinned;
      {
        rw::MutexLock lk(shard->mu);
        for (auto& [key, flow] : shard->flows) {
          if (flow.reconfiguring) continue;  // another reresolve() has it
          core::ChainSpecRef spec = classifier_.resolve(key);
          if (spec == flow.spec) continue;  // flyweight: same pointer, same spec
          flow.reconfiguring = true;
          pinned.emplace_back(key, flow.chain, std::move(spec));
        }
      }
      for (const auto& [key, chain, spec] : pinned) {
        bool done = false;
        try {
          // New stages first, so a spec that cannot be instantiated leaves
          // the flow on its old chain; every remove/append is one splice.
          auto stages = core::instantiate_chain(*spec, registry_);
          for (std::size_t n = chain->size(); n > 0; --n) chain->remove(n - 1);
          for (auto& filter : stages) chain->append(std::move(filter));
          done = true;
        } catch (const std::exception& e) {
          RW_ERROR("flow_table") << "reconfiguring a flow onto '" << spec->name
                                 << "' failed: " << e.what();
        }
        rw::MutexLock lk(shard->mu);
        auto it = shard->flows.find(key);
        if (it == shard->flows.end() || it->second.chain != chain) continue;
        if (done) it->second.spec = spec;
        it->second.reconfiguring = false;
        changed += done ? 1 : 0;
      }
    } while (version != classifier_.version());
  }
  reconfigured_.fetch_add(changed, std::memory_order_relaxed);
  return changed;
}

void FlowTable::sweep_shard(std::size_t idx) {
  Shard& shard = *shards_[idx];
  // Never block the worker: a control op holding the shard lock just means
  // this round is skipped, and a flow pinned by reresolve() counts as
  // active.
  if (!shard.mu.try_lock()) return;
  try {
    for (auto it = shard.flows.begin(); it != shard.flows.end();) {
      Flow& flow = it->second;
      if (flow.reconfiguring || flow.activity != flow.seen_activity) {
        flow.seen_activity = flow.activity;
        flow.idle_sweeps = 0;
        ++it;
        continue;
      }
      if (++flow.idle_sweeps < 2) {
        ++it;
        continue;
      }
      // Idle for a full timeout: shut the chain down asynchronously and
      // park it for reaping. begin_shutdown never waits — the final drives
      // run on this very worker, behind this timer callback.
      flow.chain->begin_shutdown();
      shard.draining.push_back(std::move(flow));
      it = shard.flows.erase(it);
      flows_.fetch_sub(1, std::memory_order_relaxed);
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    // Reap drains whose every member has run its final drive. Destruction
    // is cheap here: shutdown already happened, the done-gates are set.
    std::erase_if(shard.draining, [](const Flow& flow) {
      return flow.chain->finished();
    });
  } catch (const std::exception& e) {
    // A timer callback must not throw into the worker loop.
    RW_ERROR("flow_table") << "idle sweep failed: " << e.what();
  }
  shard.mu.unlock();
}

std::size_t FlowTable::size() const {
  return flows_.load(std::memory_order_relaxed);
}

std::uint64_t FlowTable::created() const {
  return created_.load(std::memory_order_relaxed);
}

std::uint64_t FlowTable::expired() const {
  return expired_.load(std::memory_order_relaxed);
}

std::uint64_t FlowTable::reconfigured() const {
  return reconfigured_.load(std::memory_order_relaxed);
}

std::uint64_t FlowTable::flows_evicted() const {
  return evicted_.load(std::memory_order_relaxed);
}

void FlowTable::shutdown_all() {
  std::vector<Flow> doomed;
  for (auto& shard : shards_) {
    rw::MutexLock lk(shard->mu);
    expired_.fetch_add(shard->flows.size(), std::memory_order_relaxed);
    flows_.fetch_sub(shard->flows.size(), std::memory_order_relaxed);
    for (auto& [key, flow] : shard->flows) doomed.push_back(std::move(flow));
    shard->flows.clear();
    for (auto& flow : shard->draining) doomed.push_back(std::move(flow));
    shard->draining.clear();
  }
  // shutdown() blocks until each member stopped; for chains the sweep
  // already evicted it only waits out their final drives.
  for (auto& flow : doomed) flow.chain->shutdown();
}

void FlowTable::bind_metrics(obs::Scope scope) {
  if (metrics_) metrics_->drop();
  const auto publish = [&scope](const char* name,
                                const std::atomic<std::uint64_t>& count) {
    scope.callback(name, [&count] {
      return static_cast<double>(count.load(std::memory_order_relaxed));
    });
  };
  publish("flows", flows_);
  publish("created", created_);
  publish("expired", expired_);
  publish("reconfigured", reconfigured_);
  publish("evicted", evicted_);
  metrics_.emplace(std::move(scope));
}

}  // namespace rapidware::proxy
