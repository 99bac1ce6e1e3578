// Capacity-bucketed free list of Bytes buffers — the data plane's
// allocation recycler.
//
// Every packet crossing a filter hop would otherwise cost at least one
// fresh heap allocation (FrameReader building its payload vector). The
// pool turns that into a pop from a per-size-class free list: acquire(n)
// returns a buffer of size n whose capacity came from an earlier
// release(), and release() files a spent buffer back under its capacity
// class. Steady state, a pass-through packet hop allocates nothing
// (asserted by the pool hit-rate test in tests/filter_chain_test.cpp).
//
// Size classes are powers of two from kMinCapacity up to max_capacity;
// a buffer in bucket b always has capacity >= 2^b, so acquire can hand out
// any buffer filed in ceil_log2(n)'s bucket without reallocating. Buffers
// larger than max_capacity, and buckets already holding
// max_buffers_per_bucket entries, are dropped to the allocator — the pool
// bounds its own footprint.
//
// Per-worker arenas: the process-wide default_pool() serializes every
// worker on one mutex, which is the scaling wall at high worker counts.
// A worker-local pool (constructed with a parent) is installed as the
// thread's arena via install_local(); BufferPool::local() resolves to it
// on that thread and to default_pool() everywhere else, so call sites
// that acquire and release through local() take only the worker's own
// uncontended lock on the steady-state path — zero acquisitions of the
// global pool's mutex (proven by the lock_acquires() counter in
// bench_worker_scaling). Capacity is not stranded per worker: a bucket
// overflow donates a batch back to the parent and a bucket miss refills a
// batch from it (both counted in Stats::rebalanced), so dense deployments
// share capacity at batch granularity instead of per buffer.
//
// Thread-safe: one leaf mutex around the free lists (never held while
// calling out — a batch transfer extracts under the child lock, drops it,
// then files under the parent lock, so the two pool locks never nest),
// hit/miss counters are relaxed atomics readable without the lock — obs
// callback gauges read them live (docs/observability.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>  // rw-lint: allow(RW001) std::thread::id only, no threads
#include <vector>

#include "util/bytes.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::util {

class BufferPool {
 public:
  struct Config {
    /// Free buffers retained per size class; excess releases are dropped
    /// (or donated to the parent for worker-local pools). Sized so a full
    /// default-capacity stream ring (64 KiB) of smallest-class frames can
    /// be in flight and still land back in the pool without drops (a
    /// FrameReader refill can acquire that many buffers in one burst
    /// before downstream releases any).
    std::size_t max_buffers_per_bucket = 128;
    /// Buffers with larger capacity are never pooled (2^20 = 1 MiB).
    std::size_t max_capacity = std::size_t{1} << 20;
  };

  /// Counter snapshot; all values are monotonic.
  struct Stats {
    std::uint64_t hits = 0;      // acquire served from the free list
    std::uint64_t misses = 0;    // acquire fell through to the allocator
    std::uint64_t recycled = 0;  // release filed the buffer for reuse
    std::uint64_t dropped = 0;   // release discarded (bucket full/too big)
    std::uint64_t cross_free = 0;   // release from a non-owner thread
    std::uint64_t rebalanced = 0;   // batch transfers with the parent
  };

  BufferPool();  // default Config (delegating; GCC can't default-arg here)
  explicit BufferPool(Config config);

  /// Worker-local arena: bucket overflow/underflow rebalances against
  /// `parent` in batches. The arena's mutex is the distinct
  /// "util/buffer_pool_local" lock — batch transfers never hold both the
  /// child and the parent lock (extract, drop, transfer), so the two
  /// never nest at runtime.
  BufferPool(Config config, BufferPool* parent);

  /// Returns a buffer resized to `size` (contents unspecified), reusing
  /// pooled capacity when a matching class has a free buffer.
  Bytes acquire(std::size_t size);

  /// Recycles `b`'s capacity; `b` is left empty either way.
  void release(Bytes&& b) noexcept;

  /// The calling thread's arena: the installed worker-local pool on a
  /// worker thread (core::EventLoop::run installs its own around the
  /// loop), default_pool() everywhere else. Data-plane call sites resolve
  /// this per acquire/release — never cache across threads — so frees are
  /// routed to the *releasing* thread's pool.
  static BufferPool& local() noexcept;

  /// Installs `pool` as the calling thread's arena (nullptr to clear) and
  /// returns the previous installation so callers can restore it. Records
  /// the calling thread as `pool`'s owner for cross-free accounting.
  static BufferPool* install_local(BufferPool* pool) noexcept;

  Stats stats() const noexcept {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed),
            recycled_.load(std::memory_order_relaxed),
            dropped_.load(std::memory_order_relaxed),
            cross_free_.load(std::memory_order_relaxed),
            rebalanced_.load(std::memory_order_relaxed)};
  }

  /// Fraction of acquires served from the free list (0 when none yet).
  double hit_rate() const noexcept {
    const Stats s = stats();
    const std::uint64_t total = s.hits + s.misses;
    return total == 0 ? 0.0 : static_cast<double>(s.hits) /
                                  static_cast<double>(total);
  }

  /// Times this pool's mutex has been acquired, ever. The shared-nothing
  /// proof reads this on default_pool() around a steady-state window and
  /// asserts the delta is zero (bench_worker_scaling, event_loop_test).
  std::uint64_t lock_acquires() const noexcept {
    return lock_acquires_.load(std::memory_order_relaxed);
  }

  /// Free buffers currently held (all buckets; takes the lock).
  std::size_t free_buffers() const;

 private:
  static constexpr std::size_t kMinCapacity = 64;  // smallest size class
  /// Buffers moved per parent rebalance. Batch granularity is what keeps
  /// rebalancing off the steady-state path: one parent-lock acquisition
  /// amortizes over kRebalanceBatch buffers.
  static constexpr std::size_t kRebalanceBatch = 32;

  /// Smallest bucket index whose class capacity (2^(index + log2(kMin)))
  /// is >= size — where acquire(size) looks.
  static std::size_t bucket_for_acquire(std::size_t size) noexcept;

  /// Largest bucket index whose class capacity is <= capacity — where a
  /// released buffer of that capacity is filed.
  static std::size_t bucket_for_release(std::size_t capacity) noexcept;

  /// Moves up to `max` buffers out of `bucket` into `out`; returns the
  /// count. Takes the lock once for the whole batch.
  std::size_t take_batch(std::size_t bucket, std::size_t max, Bytes* out);

  /// Files `n` buffers from `in` under `bucket`, dropping any overflow.
  /// Takes the lock once for the whole batch.
  void put_batch(std::size_t bucket, Bytes* in, std::size_t n) noexcept;

  const Config config_;
  const std::size_t bucket_count_;
  BufferPool* const parent_ = nullptr;
  // Exactly one of these is ever locked per instance: mu_ binds to
  // global_mu_ for the process-wide pool and to local_mu_ for worker
  // arenas. Two named declarations (instead of one runtime-named mutex)
  // keep the static lock-graph extractor (tools/lock_graph.py) seeing
  // both names and both ranks.
  mutable rw::Mutex global_mu_{"util/buffer_pool", rw::lockrank::kBufferPool};
  // clang-format off: one line so the per-line extractor sees the decl
  mutable rw::Mutex local_mu_{"util/buffer_pool_local", rw::lockrank::kBufferPoolLocal};
  // clang-format on
  rw::Mutex& mu_;
  std::vector<std::vector<Bytes>> free_ RW_GUARDED_BY(mu_);

  std::atomic<std::thread::id> owner_{};  // set by install_local
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> cross_free_{0};
  std::atomic<std::uint64_t> rebalanced_{0};
  mutable std::atomic<std::uint64_t> lock_acquires_{0};
};

/// The process-wide pool the data plane recycles through when no
/// worker-local arena is installed, and the rebalance parent of every
/// worker-local arena. Never destroyed (leaked intentionally, like
/// obs::registry()) so release() from late-exiting filter threads is
/// always safe.
BufferPool& default_pool();

}  // namespace rapidware::util
