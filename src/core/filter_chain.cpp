#include "core/filter_chain.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/composability.h"
#include "core/worker_pool.h"
#include "util/buffer_pool.h"
#include "util/logging.h"

namespace rapidware::core {

namespace {

/// Reconfiguration events retained by the chain's trace ring: enough to
/// reconstruct a whole adaptation episode, small enough to dump over STATS.
constexpr std::size_t kEventTraceCapacity = 64;

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// After a failed splice, reattach `left` directly to `right`; if the right
/// side is itself dead (reader closed), close left's DOS instead so the
/// upstream writer observes BrokenPipe rather than waiting forever on a
/// stream nobody will ever reconnect.
void restore_or_abandon_splice(Filter& left, Filter& right) {
  try {
    left.dos().reconnect(right.dis());
  } catch (const StreamError&) {
    left.dos().close();
  }
}

}  // namespace

FilterChain::FilterChain(std::shared_ptr<Filter> head,
                         std::shared_ptr<Filter> tail)
    : head_(std::move(head)), tail_(std::move(tail)) {
  if (!head_ || !tail_) throw std::invalid_argument("FilterChain: null endpoint");
}

FilterChain::~FilterChain() {
  try {
    shutdown();
  } catch (...) {
    // Best-effort teardown only.
  }
  try {
    unbind_metrics();
  } catch (...) {
    // Best-effort teardown only.
  }
}

void FilterChain::host_on(EventLoop& loop) {
  rw::MutexLock lk(mu_);
  if (started_) throw StreamError("FilterChain::host_on: already started");
  host_ = &loop;
  metrics_pool_.store(&loop.pool(), std::memory_order_release);
}

EventLoop* FilterChain::host() const {
  rw::MutexLock lk(mu_);
  return host_;
}

std::vector<Filter*> FilterChain::stages_locked() const {
  std::vector<Filter*> out;
  for (const auto& f : filters_) {
    for (Filter* s : f->stages()) out.push_back(s);
  }
  return out;
}

void FilterChain::start() {
  rw::MutexLock lk(mu_);
  if (started_) throw StreamError("FilterChain::start: already started");
  if (host_ == nullptr) {
    host_ = &default_worker_pool().next();
    metrics_pool_.store(&host_->pool(), std::memory_order_release);
  }
  // Wire head -> [pre-inserted stages] -> tail, then start consumers
  // before producers.
  const std::vector<Filter*> stages = stages_locked();
  Filter* prev = head_.get();
  for (Filter* s : stages) {
    prev->dos().connect(s->dis());
    prev = s;
  }
  prev->dos().connect(tail_->dis());
  tail_->start(*host_);
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    (*it)->start(*host_);
  }
  head_->start(*host_);
  started_ = true;
  record_locked("start");
}

void FilterChain::check_pos_locked(std::size_t pos, bool inclusive) const {
  const std::size_t limit = filters_.size() + (inclusive ? 1 : 0);
  if (pos >= limit) throw std::out_of_range("FilterChain: bad position");
}

Filter& FilterChain::left_of_locked(std::size_t pos) {
  // The last stage before unit `pos`; an empty composite contributes none.
  for (std::size_t i = pos; i > 0; --i) {
    const std::vector<Filter*> stages = filters_[i - 1]->stages();
    if (!stages.empty()) return *stages.back();
  }
  return *head_;
}

Filter& FilterChain::right_of_locked(std::size_t pos) {
  for (std::size_t i = pos; i < filters_.size(); ++i) {
    const std::vector<Filter*> stages = filters_[i]->stages();
    if (!stages.empty()) return *stages.front();
  }
  return *tail_;
}

void FilterChain::insert(std::shared_ptr<Filter> filter, std::size_t pos) {
  if (!filter) throw std::invalid_argument("FilterChain::insert: null filter");
  rw::MutexLock lk(mu_);
  if (shut_down_) throw StreamError("FilterChain::insert: chain shut down");
  check_pos_locked(pos, /*inclusive=*/true);
  for (const Filter* s : filter->stages()) {
    if (s->running()) {
      throw StreamError("FilterChain::insert: filter already running");
    }
  }
  if (stream_type_ != kAnyType) {
    auto arrangement = filters_;
    arrangement.insert(arrangement.begin() + static_cast<std::ptrdiff_t>(pos),
                       filter);
    require_types_locked("insert", arrangement);
  }
  insert_locked(std::move(filter), pos);
}

void FilterChain::insert_locked(std::shared_ptr<Filter> filter,
                                std::size_t pos) {
  // Before start() this just configures the chain; start() wires it.
  const std::vector<Filter*> stages = filter->stages();
  const auto t0 = std::chrono::steady_clock::now();
  if (started_ && !stages.empty()) {
    Filter& left = left_of_locked(pos);
    Filter& right = right_of_locked(pos);
    // A composite's own stages are idle: chaining them touches no live
    // stream. Undone below if the splice fails, so the unit stays reusable.
    const auto unwire = [&stages] {
      for (Filter* s : stages) {
        if (s->dos().connected()) s->dos().pause();
      }
    };
    try {
      for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
        stages[i]->dos().connect(stages[i + 1]->dis());
      }
    } catch (...) {
      unwire();
      throw;
    }
    // The paper's add(): pause the left DOS (the right DIS is automatically
    // paused with it), then splice the unit's streams in. Output side
    // first: if either reconnect fails (a dead or misused peer), the splice
    // is restored — or abandoned with a hard close — so no stage is left
    // wedged against a half-spliced stream.
    left.dos().pause();
    try {
      stages.back()->dos().reconnect(right.dis());
      left.dos().reconnect(stages.front()->dis());
    } catch (...) {
      unwire();
      restore_or_abandon_splice(left, right);
      throw;
    }
    for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
      (*it)->start(*host_);
    }
  }

  Filter* raw = filter.get();
  filters_.insert(filters_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(filter));
  attach_filter_locked(*raw);
  if (m_inserts_) m_inserts_->add();
  if (m_filters_) m_filters_->set(static_cast<std::int64_t>(filters_.size()));
  if (started_ && m_reconfig_us_) {
    m_reconfig_us_->observe(static_cast<double>(elapsed_us(t0)));
  }
  record_locked("insert " + raw->name() + " @" + std::to_string(pos));
}

std::shared_ptr<Filter> FilterChain::remove(std::size_t pos) {
  rw::MutexLock lk(mu_);
  if (shut_down_) throw StreamError("FilterChain::remove: chain shut down");
  check_pos_locked(pos, /*inclusive=*/false);
  if (stream_type_ != kAnyType) {
    auto arrangement = filters_;
    arrangement.erase(arrangement.begin() + static_cast<std::ptrdiff_t>(pos));
    require_types_locked("remove", arrangement);
  }
  return remove_locked(pos);
}

std::shared_ptr<Filter> FilterChain::remove_locked(std::size_t pos) {
  std::shared_ptr<Filter> filter = filters_[pos];
  const std::vector<Filter*> stages = filter->stages();
  const auto t0 = std::chrono::steady_clock::now();
  if (started_ && !stages.empty()) {
    Filter& left = left_of_locked(pos);
    Filter& right = right_of_locked(pos + 1);
    // End each stage's input, wait until it has read what its ring still
    // held and flushed buffered state downstream, then close the gap.
    // Stage by stage, so a composite's children flush in order, each into
    // a still-running successor.
    left.dos().pause();
    for (Filter* s : stages) {
      s->dis().mark_soft_eof();
      s->join();
      s->dos().pause();
    }
    try {
      left.dos().reconnect(right.dis());
    } catch (const StreamError&) {
      // Right side died while we were splicing it back in; abandon the
      // stream so upstream unblocks with BrokenPipe instead of wedging.
      left.dos().close();
      throw;
    }
  }

  filters_.erase(filters_.begin() + static_cast<std::ptrdiff_t>(pos));
  detach_filter_locked(*filter);
  if (m_removes_) m_removes_->add();
  if (m_filters_) m_filters_->set(static_cast<std::int64_t>(filters_.size()));
  if (started_ && m_reconfig_us_) {
    m_reconfig_us_->observe(static_cast<double>(elapsed_us(t0)));
  }
  record_locked("remove " + filter->name() + " @" + std::to_string(pos));
  return filter;
}

void FilterChain::reorder(std::size_t from, std::size_t to) {
  // remove() + insert(), as the paper's ControlThread does, under one hold
  // of mu_: no other control op runs between the two splices, so only the
  // final arrangement is type-checked. `to` addresses the vector after the
  // removal.
  rw::MutexLock lk(mu_);
  if (shut_down_) throw StreamError("FilterChain::reorder: chain shut down");
  check_pos_locked(from, /*inclusive=*/false);
  to = std::min(to, filters_.size() - 1);
  if (stream_type_ != kAnyType) {
    auto arrangement = filters_;
    auto moved = arrangement[from];
    arrangement.erase(arrangement.begin() + static_cast<std::ptrdiff_t>(from));
    arrangement.insert(arrangement.begin() + static_cast<std::ptrdiff_t>(to),
                       std::move(moved));
    require_types_locked("reorder", arrangement);
  }
  insert_locked(remove_locked(from), to);
  if (m_reorders_) m_reorders_->add();
  record_locked("reorder " + std::to_string(from) + " -> " +
                std::to_string(to));
}

bool FilterChain::set_param(std::size_t pos, const std::string& key,
                            const std::string& value) {
  std::shared_ptr<Filter> filter;
  {
    rw::MutexLock lk(mu_);
    check_pos_locked(pos, /*inclusive=*/false);
    filter = filters_[pos];
    if (m_set_params_) m_set_params_->add();
    record_locked("set " + filter->name() + " " + key + "=" + value);
  }
  return filter->set_param(key, value);
}

std::size_t FilterChain::size() const {
  rw::MutexLock lk(mu_);
  return filters_.size();
}

std::vector<std::string> FilterChain::names() const {
  rw::MutexLock lk(mu_);
  std::vector<std::string> out;
  out.reserve(filters_.size());
  for (const auto& f : filters_) out.push_back(f->name());
  return out;
}

std::shared_ptr<Filter> FilterChain::at(std::size_t pos) const {
  rw::MutexLock lk(mu_);
  check_pos_locked(pos, /*inclusive=*/false);
  return filters_[pos];
}

std::vector<std::shared_ptr<Filter>> FilterChain::list() const {
  rw::MutexLock lk(mu_);
  return filters_;
}

bool FilterChain::started() const {
  rw::MutexLock lk(mu_);
  return started_ && !shut_down_;
}

void FilterChain::set_stream_type(std::string type) {
  rw::MutexLock lk(mu_);
  stream_type_ = std::move(type);
}

std::optional<std::string> FilterChain::check_types_locked(
    const std::vector<std::shared_ptr<Filter>>& filters) const {
  std::string type = stream_type_;
  for (const auto& f : filters) {
    if (auto error = check_step(f->name(), f->input_requirement(), type)) {
      return error;
    }
    type = f->output_type(type);
  }
  return std::nullopt;
}

void FilterChain::require_types_locked(
    const char* op,
    const std::vector<std::shared_ptr<Filter>>& filters) const {
  if (const auto error = check_types_locked(filters)) {
    throw StreamError(std::string("FilterChain::") + op +
                      " rejected: " + *error);
  }
}

std::vector<std::string> FilterChain::type_trace() const {
  rw::MutexLock lk(mu_);
  std::vector<std::string> trace;
  trace.reserve(filters_.size() + 1);
  std::string type = stream_type_;
  trace.push_back(type);
  for (const auto& f : filters_) {
    type = f->output_type(type);
    trace.push_back(type);
  }
  return trace;
}

std::optional<std::string> FilterChain::type_error() const {
  rw::MutexLock lk(mu_);
  return check_types_locked(filters_);
}

void FilterChain::shutdown() {
  begin_shutdown();
  // Wait even when an earlier begin_shutdown() started the ripple: freeing
  // one filter's streams while its upstream neighbour's final drive still
  // writes into them would be a use-after-free (the destructor lands here).
  rw::MutexLock lk(mu_);
  if (!started_) return;
  head_->join();
  for (Filter* s : stages_locked()) s->join();
  tail_->join();
}

void FilterChain::begin_shutdown() {
  rw::MutexLock lk(mu_);
  if (!started_ || shut_down_) return;
  shut_down_ = true;  // no control op touches a stream from here on
  record_locked("shutdown");

  // The end-of-stream ripple: the head stops taking input, and every stage
  // closes its output after its final drive, so each drains, flushes and
  // hands EOF downstream in stream order on its own worker. Nothing here
  // waits on a drive.
  head_->interrupt();
  head_->close_output_when_done();
  for (Filter* s : stages_locked()) s->close_output_when_done();
}

bool FilterChain::finished() const {
  rw::MutexLock lk(mu_);
  if (!started_ || !shut_down_) return false;
  if (head_->running() || tail_->running()) return false;
  for (const Filter* s : stages_locked()) {
    if (s->running()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Observability

void FilterChain::bind_metrics(obs::Registry& reg, const std::string& name) {
  rw::MutexLock lk(mu_);
  if (scope_) {
    scope_->drop();
    bound_.clear();
  }
  scope_.emplace(reg, name);
  m_inserts_ = scope_->counter("inserts");
  m_removes_ = scope_->counter("removes");
  m_reorders_ = scope_->counter("reorders");
  m_set_params_ = scope_->counter("set_params");
  m_filters_ = scope_->gauge("filters");
  m_filters_->set(static_cast<std::int64_t>(filters_.size()));
  m_reconfig_us_ =
      scope_->histogram("reconfig_us", obs::Histogram::latency_us_bounds());
  m_events_ = scope_->trace("events", kEventTraceCapacity);
  // Data-plane buffer pool health, surfaced per chain: the host worker's
  // arena once the chain is hosted, the process-wide pool before that.
  // Steady-state hit rate near 1.0 means the packet path is
  // allocation-free (docs/data_plane.md). `this` captures are safe: the
  // chain drops this scope (blocking out in-flight snapshots) before
  // destruction.
  {
    const auto pool = [this]() -> util::BufferPool& { return recycle_pool(); };
    obs::Scope pool_scope = scope_->child("pool");
    pool_scope.callback("hits", [pool] {
      return static_cast<double>(pool().stats().hits);
    });
    pool_scope.callback("misses", [pool] {
      return static_cast<double>(pool().stats().misses);
    });
    pool_scope.callback("hit_rate", [pool] { return pool().hit_rate(); });
    pool_scope.callback("free_buffers", [pool] {
      return static_cast<double>(pool().free_buffers());
    });
    pool_scope.callback("cross_free", [pool] {
      return static_cast<double>(pool().stats().cross_free);
    });
    pool_scope.callback("rebalance", [pool] {
      return static_cast<double>(pool().stats().rebalanced);
    });
  }
  attach_filter_locked(*head_);
  for (const auto& f : filters_) attach_filter_locked(*f);
  attach_filter_locked(*tail_);
}

void FilterChain::unbind_metrics() {
  rw::MutexLock lk(mu_);
  if (!scope_) return;
  scope_->drop();
  scope_.reset();
  bound_.clear();
  m_inserts_.reset();
  m_removes_.reset();
  m_reorders_.reset();
  m_set_params_.reset();
  m_filters_.reset();
  m_reconfig_us_.reset();
  m_events_.reset();
}

void FilterChain::attach_filter_locked(Filter& filter) {
  if (!scope_) return;
  if (bound_.count(&filter) != 0) return;  // head==tail, double insert, ...
  const auto taken = [&](const std::string& candidate) {
    for (const auto& [f, leaf] : bound_) {
      if (leaf == candidate) return true;
    }
    return false;
  };
  std::string leaf = filter.name();
  for (int suffix = 2; taken(leaf); ++suffix) {
    leaf = filter.name() + "#" + std::to_string(suffix);
  }
  bound_[&filter] = leaf;
  filter.register_metrics(scope_->child(leaf));
}

void FilterChain::detach_filter_locked(const Filter& filter) {
  if (!scope_) return;
  auto it = bound_.find(&filter);
  if (it == bound_.end()) return;
  scope_->registry().drop(scope_->full(it->second));
  bound_.erase(it);
}

void FilterChain::record_locked(const std::string& text) {
  if (m_events_) m_events_->record(text);
}

}  // namespace rapidware::core
