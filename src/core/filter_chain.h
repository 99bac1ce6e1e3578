// FilterChain — the paper's ControlThread (Section 4).
//
// Manages the ordered vector of filters spliced between two endpoints on a
// single data stream, and implements the paper's add()/delete()/reorder
// operations on a *running* stream via the pause/reconnect protocol:
//
//   insert(F, pos):  Left.DOS.pause()            — detach the splice point
//                    Right.DIS.reconnect(F.DOS)  — attach new filter output
//                    Left.DOS.reconnect(F.DIS)   — attach new filter input
//                    F.start(loop)
//
//   remove(pos):     Left.DOS.pause()            — F's input ends here
//                    F.DIS.mark_soft_eof()
//                    F.join()                    — F reads its ring, flushes
//                    F.DOS.pause()
//                    Left.DOS.reconnect(Right.DIS)
//
// No pause waits (a ring keeps its bytes); remove() waits in join() only.
//
//   shutdown:        Head.interrupt()            — the source ends
//                    every F.close_output_when_done()
//                                                — each stage drains,
//                                                  flushes, then closes
//
// Every member runs as a non-blocking drive on ONE worker loop (chain
// affinity, docs/data_plane.md "Worker model"): host_on() picks it, or
// start() places the chain on core::default_worker_pool(). A composite
// filter (Filter::stages(), e.g. filters::PipelineFilter) is one unit in
// the vector — positions, remove()'s return value, list()/names() and the
// type checks see it whole — while its children are spliced in as
// consecutive stages, so it needs no thread or nested chain of its own
// (Philipps & Rumpe: a composite filter is equivalent to its expanded
// network). A plain filter is simply a one-stage unit.
//
// All control operations are serialized by one mutex; data keeps flowing
// through the untouched part of the chain while an operation runs.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/filter.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

class FilterChain {
 public:
  /// The chain owns its endpoints: head produces data into the chain, tail
  /// consumes it at the far end.
  FilterChain(std::shared_ptr<Filter> head, std::shared_ptr<Filter> tail);
  ~FilterChain();

  FilterChain(const FilterChain&) = delete;
  FilterChain& operator=(const FilterChain&) = delete;

  /// Hosts every member on `loop`: start() and later insert()s call
  /// Filter::start(loop), so the whole chain runs on one worker (chain
  /// affinity — members never race, and a worker's chains share its
  /// thread). Must be called before start(); the loop must outlive the
  /// chain.
  void host_on(EventLoop& loop);

  /// The hosting loop; nullptr until host_on() or start() picks one.
  EventLoop* host() const;

  /// The buffer pool this chain's packets recycle through: the hosting
  /// worker's arena once hosted, util::default_pool() before that. What the
  /// chain's `pool/` metric rows read; tests assert steady-state hit rates
  /// against it.
  util::BufferPool& recycle_pool() const {
    util::BufferPool* p = metrics_pool_.load(std::memory_order_acquire);
    return p != nullptr ? *p : util::default_pool();
  }

  /// Connects head -> [configured stages] -> tail and starts every member.
  /// Without an explicit host_on(), the chain is hosted on the least-loaded
  /// worker of the process-wide default_worker_pool() (created on first
  /// use).
  void start();

  /// Inserts a filter at `pos` (0 = immediately after the head endpoint;
  /// size() = immediately before the tail). None of its stages may be
  /// running. Before start() this just configures the chain; afterwards it
  /// splices the filter's stages into the live stream via the
  /// pause/reconnect protocol.
  void insert(std::shared_ptr<Filter> filter, std::size_t pos);

  /// Convenience: insert at the end (before the tail endpoint).
  void append(std::shared_ptr<Filter> filter) { insert(std::move(filter), size()); }

  /// Removes and returns the filter at `pos` after letting its stages flush
  /// in order. The returned filter is idle, its streams disconnected, and
  /// it can be re-inserted (possibly elsewhere).
  std::shared_ptr<Filter> remove(std::size_t pos);

  /// Moves the filter at `from` to position `to` (positions in the vector
  /// after removal semantics, as the paper's reorder).
  void reorder(std::size_t from, std::size_t to);

  /// Forwards a parameter change to the filter at `pos`.
  bool set_param(std::size_t pos, const std::string& key,
                 const std::string& value);

  std::size_t size() const;
  std::vector<std::string> names() const;
  std::shared_ptr<Filter> at(std::size_t pos) const;

  /// Atomic snapshot of the configured filters, in chain order. Stats and
  /// introspection paths must iterate this instead of size() + at(i): that
  /// pair re-acquires the mutex per call, so a concurrent remove() between
  /// the two turns a valid index into an out_of_range error.
  std::vector<std::shared_ptr<Filter>> list() const;

  Filter& head() { return *head_; }
  Filter& tail() { return *tail_; }

  bool started() const;

  // --- Composability typing (core/composability.h) -----------------------
  // Declare the type of the stream the head endpoint produces, and every
  // insert/remove/reorder that would wedge a filter against a stream it
  // cannot parse is rejected (StreamError) before touching the stream.

  /// Sets the ingress stream type (default "any": nothing is checked).
  void set_stream_type(std::string type);

  /// The stream type entering each filter plus the final egress type;
  /// size() + 1 entries.
  std::vector<std::string> type_trace() const;

  /// First type error in the current configuration, or nullopt.
  std::optional<std::string> type_error() const;

  /// begin_shutdown(), then waits for every member's final drive.
  /// Idempotent; also completes a shutdown begun earlier.
  void shutdown();

  /// Ends the chain without waiting: interrupts the head and asks every
  /// stage to close its output when its run ends
  /// (Filter::close_output_when_done), so the end of the stream ripples
  /// down the chain on the worker. Nothing in flight is lost: each stage
  /// drains, flushes and closes in stream order. Poll finished() to learn
  /// when every final drive has run — a worker must never block on a
  /// chain's teardown (the idle-flow eviction sweep runs this from a
  /// worker timer). Idempotent. Afterwards no control operation may touch
  /// the chain.
  void begin_shutdown();

  /// True once a shutdown was initiated and every member has stopped
  /// running. Cheap; safe to poll from a worker timer for chains that are
  /// past begin_shutdown() (no control op blocks on worker progress once
  /// the chain is shut down).
  bool finished() const;

  // --- Observability (src/obs) -------------------------------------------

  /// Publishes chain metrics under "<name>/..." in `reg` and per-member
  /// metrics under "<name>/<filter-name>/..." (head, tail, and every
  /// configured filter; duplicate filter names get a "#2", "#3", ... suffix
  /// in registration order). Filters inserted later are registered as they
  /// arrive; removed filters have their metrics dropped. Chain-level
  /// entries: inserts/removes/reorders/set_params counters, a `filters`
  /// gauge, a `reconfig_us` splice-latency histogram, and an `events` trace
  /// ring of reconfigurations. Rebinding replaces any previous binding.
  void bind_metrics(obs::Registry& reg, const std::string& name);

  /// Drops everything bind_metrics registered (idempotent). Runs
  /// automatically on destruction; call earlier if the registry must stop
  /// referencing the chain's filters sooner.
  void unbind_metrics();

 private:
  /// Validates a hypothetical filter vector; returns the first error.
  std::optional<std::string> check_types_locked(
      const std::vector<std::shared_ptr<Filter>>& filters) const
      RW_REQUIRES(mu_);
  /// Throws StreamError when `filters` would not type-check. Callers build
  /// the arrangement only when a stream type is declared.
  void require_types_locked(
      const char* op,
      const std::vector<std::shared_ptr<Filter>>& filters) const
      RW_REQUIRES(mu_);
  /// The splice halves of insert()/remove(), without their argument and
  /// type checks; reorder() runs both under one hold of mu_.
  void insert_locked(std::shared_ptr<Filter> filter, std::size_t pos)
      RW_REQUIRES(mu_);
  std::shared_ptr<Filter> remove_locked(std::size_t pos) RW_REQUIRES(mu_);
  Filter& left_of_locked(std::size_t pos) RW_REQUIRES(mu_);
  Filter& right_of_locked(std::size_t pos) RW_REQUIRES(mu_);
  void check_pos_locked(std::size_t pos, bool inclusive) const
      RW_REQUIRES(mu_);
  /// Every configured unit's stages, in stream order.
  std::vector<Filter*> stages_locked() const RW_REQUIRES(mu_);

  // Metrics plumbing; all require mu_. Lock order: mu_ before the registry
  // mutex, and registered callbacks never take mu_ (src/obs/metrics.h).
  void attach_filter_locked(Filter& filter) RW_REQUIRES(mu_);
  void detach_filter_locked(const Filter& filter) RW_REQUIRES(mu_);
  void record_locked(const std::string& text) RW_REQUIRES(mu_);

  mutable rw::Mutex mu_{"core/filter_chain", rw::lockrank::kFilterChain};
  const std::shared_ptr<Filter> head_;  // immutable after construction
  const std::shared_ptr<Filter> tail_;  // immutable after construction
  EventLoop* host_ RW_GUARDED_BY(mu_) = nullptr;
  // The pool the chain's `pool/` gauges report on: the host worker's
  // arena once hosted, util::default_pool() before that. An atomic (not
  // mu_-guarded) because registry callbacks must never take mu_; nullptr
  // means "not hosted yet, read the process pool".
  std::atomic<util::BufferPool*> metrics_pool_{nullptr};
  std::vector<std::shared_ptr<Filter>> filters_ RW_GUARDED_BY(mu_);
  bool started_ RW_GUARDED_BY(mu_) = false;
  bool shut_down_ RW_GUARDED_BY(mu_) = false;
  std::string stream_type_ RW_GUARDED_BY(mu_) = "any";

  // Observability state (guarded by mu_). The `filters` gauge is set during
  // control ops rather than pulled through a callback so no registry
  // callback ever needs mu_.
  std::optional<obs::Scope> scope_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_inserts_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_removes_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_reorders_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_set_params_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Gauge> m_filters_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Histogram> m_reconfig_us_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::TraceRing> m_events_ RW_GUARDED_BY(mu_);
  std::map<const Filter*, std::string> bound_ RW_GUARDED_BY(mu_);
};

}  // namespace rapidware::core
