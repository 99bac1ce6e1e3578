// Multicore worker scaling: aggregate throughput of the shared-nothing
// event data plane as workers are added (docs/data_plane.md, "Worker
// model"). The chains × workers × payload matrix pins down the claim the
// per-worker buffer pools exist for: once every steady-state acquire and
// release resolves to the owning worker's arena, adding cores adds
// throughput instead of adding contention on util::default_pool()'s one
// mutex.
//
// Every chain is fully event-hosted (synthetic always-ready source, 8
// pass-through hops for the headline rows, its worker's counting sink —
// bench_sink.h), and every
// payload buffer cycles through BufferPool::local() ON the worker — the
// same economy the production path uses. Reported per row:
//
//   * packets_per_sec / mbytes_per_sec — aggregate across all chains;
//   * vs_memcpy        — MB/s over a same-run memcpy reference, the
//                        machine-independent number CI gates on
//                        (tools/bench_compare.py against
//                        bench/baselines/worker_scaling_baseline.json;
//                        only single-worker rows are committed — the
//                        multi-worker rows depend on hardware_threads);
//   * pool_hit_rate    — aggregated over the workers' arenas;
//   * global_lock_delta — acquisitions of util::default_pool()'s mutex
//                        during the steady-state window (must be ZERO:
//                        the shared-nothing proof).
//
// Built-in acceptance gates (exit 1 on violation):
//   * every row delivers exactly the packets and bytes it sent; a row whose
//     packets are still missing after its deadline exits at once, named;
//   * global_lock_delta == 0 on every row;
//   * steady-state pool hit rate >= 0.99 on the headline rows;
//   * >= 3x aggregate packets/s at 4 workers vs 1 on the 1 KiB x 8-filter
//     chain matrix — enforced when the host has >= 4 hardware threads
//     (a 1-core host timeshares the workers and cannot express the
//     speedup; CI's 4-core runners enforce it on every push).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_sink.h"
#include "core/endpoint.h"
#include "core/filter.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "util/buffer_pool.h"
#include "util/bytes.h"

using namespace rapidware;

namespace {

/// Always-ready source producing `total` packets of `payload` bytes, each
/// acquired from the CALLING thread's arena — poll_packet runs on the
/// worker, so the payload comes from (and the head endpoint returns it to)
/// that worker's pool: the steady-state economy never leaves the worker.
class SyntheticPacketSource final : public core::PacketSource {
 public:
  SyntheticPacketSource(std::uint64_t total, std::size_t payload)
      : total_(total), payload_(payload) {}

  void interrupt() override {
    interrupted_.store(true, std::memory_order_release);
  }

  std::optional<util::Bytes> poll_packet(bool* finished) override {
    if (produced_ >= total_ || interrupted_.load(std::memory_order_acquire)) {
      *finished = true;
      return std::nullopt;
    }
    *finished = false;
    ++produced_;
    return util::BufferPool::local().acquire(payload_);
  }

 private:
  const std::uint64_t total_;
  const std::size_t payload_;
  std::uint64_t produced_ = 0;  // loop-thread-only (single reader contract)
  std::atomic<bool> interrupted_{false};
};

class PassThroughPacketFilter final : public core::PacketFilter {
 public:
  using PacketFilter::PacketFilter;

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
};

// Ring sizing: deep enough that one worker wakeup batches several frames
// even at the 1 KiB headline payload (~15 frames per ring).
constexpr std::size_t kRing = 16384;

struct Result {
  double packets_per_sec = 0.0;
  double mbytes_per_sec = 0.0;
  double pool_hit_rate = 0.0;
  std::uint64_t global_lock_delta = 0;
  bool conserved = true;
};

Result run_once(const std::string& row, std::size_t workers,
                std::size_t chains, std::size_t filters, std::size_t payload,
                std::uint64_t packets_per_chain) {
  core::WorkerPool pool(workers);

  // Pre-warm each worker's arena: fill the size-class buckets the run will
  // cycle through (payload buffers plus the framed copies a couple of
  // classes up) to their cap, ON the loop thread, before any chain starts.
  // A long-running proxy reaches this residency organically; doing it
  // up front makes the steady-state window deterministic — without it the
  // last-started chain's first-touch misses (each one an empty refill probe
  // against the parent's mutex) can straddle the measurement boundary.
  const std::size_t bucket_cap = util::BufferPool::Config{}.max_buffers_per_bucket;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.worker(w).post([payload, bucket_cap] {
      auto& arena = util::BufferPool::local();
      std::vector<util::Bytes> held;
      held.reserve(4 * bucket_cap);
      for (std::size_t size = payload; size <= payload * 8; size *= 2) {
        for (std::size_t i = 0; i < bucket_cap; ++i) {
          held.push_back(arena.acquire(size));
        }
      }
      for (auto& b : held) arena.release(std::move(b));
    });
    pool.worker(w).sync();
  }

  // One counting sink per worker for the chains it hosts. Each arrives at
  // `quarter` a quarter of the way through its own deliveries and at
  // `done` on its last one.
  std::vector<std::shared_ptr<rwbench::CountingPacketSink>> sinks;
  for (std::size_t w = 0; w < workers; ++w) {
    sinks.push_back(std::make_shared<rwbench::CountingPacketSink>());
  }
  const std::size_t active = std::min(workers, chains);
  rwbench::Countdown quarter(active), done(active);
  for (std::size_t w = 0; w < active; ++w) {
    const std::size_t hosted = (chains - w + workers - 1) / workers;
    const std::uint64_t expected = hosted * packets_per_chain;
    sinks[w]->arrive_at(std::max<std::uint64_t>(1, expected / 4), quarter);
    sinks[w]->arrive_at(expected, done);
  }

  std::vector<std::unique_ptr<core::FilterChain>> live;
  live.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    auto source =
        std::make_shared<SyntheticPacketSource>(packets_per_chain, payload);
    auto chain = std::make_unique<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("rx", source),
        std::make_shared<core::PacketWriterEndpoint>("tx", sinks[c % workers],
                                                     kRing));
    // Deterministic spread: the scaling rows measure the shared-nothing
    // pools, not the placement heuristic (which has its own tests); an
    // unlucky placement collision must not wobble the speedup gate.
    chain->host_on(pool.worker(c % workers));
    chain->start();
    for (std::size_t f = 0; f < filters; ++f) {
      chain->insert(std::make_shared<PassThroughPacketFilter>(
                        "p" + std::to_string(f), kRing),
                    f);
    }
    live.push_back(std::move(chain));
  }

  const std::uint64_t total = packets_per_chain * chains;
  const auto t0 = std::chrono::steady_clock::now();

  // Steady-state window: the back three quarters of the run. The arenas
  // are pre-warmed, so from here on every acquire should be a local hit
  // and the global pool's mutex must not be touched at all. Hit rate is
  // computed over this window (the pre-warm's deliberate first-touch
  // misses are start-up cost, not steady-state behaviour).
  rwbench::await_or_exit(quarter, row);
  const std::uint64_t global0 = util::default_pool().lock_acquires();
  std::uint64_t hits0 = 0, misses0 = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const util::BufferPool::Stats s = pool.worker(w).pool().stats();
    hits0 += s.hits;
    misses0 += s.misses;
  }
  rwbench::await_or_exit(done, row);
  const std::uint64_t global1 = util::default_pool().lock_acquires();

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Result r;
  r.packets_per_sec = static_cast<double>(total) / secs;
  r.global_lock_delta = global1 - global0;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const util::BufferPool::Stats s = pool.worker(w).pool().stats();
    hits += s.hits;
    misses += s.misses;
  }
  hits -= hits0;
  misses -= misses0;
  r.pool_hit_rate = (hits + misses) == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);

  // Teardown off the clock: async shutdowns retire in parallel, then the
  // destructors just join.
  for (auto& chain : live) chain->begin_shutdown();
  live.clear();
  pool.stop();

  // Counted after teardown, so a duplicate delivered late still shows.
  std::uint64_t delivered = 0, delivered_bytes = 0;
  for (const auto& sink : sinks) {
    delivered += sink->packets();
    delivered_bytes += sink->bytes();
  }
  r.conserved = rwbench::conserved(row, total, total * payload, delivered,
                                   delivered_bytes);
  r.mbytes_per_sec = static_cast<double>(delivered_bytes) / secs / 1e6;
  return r;
}

Result run(const std::string& row, std::size_t workers, std::size_t chains,
           std::size_t filters, std::size_t payload,
           std::uint64_t packets_per_chain, int reps) {
  // Best of reps: the fastest run is the one least distorted by unrelated
  // scheduler noise. Pool/lock gates apply to every rep, so take the
  // strictest (max) lock delta and the lowest hit rate.
  Result best{};
  for (int i = 0; i < reps; ++i) {
    const Result r =
        run_once(row, workers, chains, filters, payload, packets_per_chain);
    if (!r.conserved) return r;  // one lossy rep fails the row
    if (r.packets_per_sec > best.packets_per_sec) {
      const std::uint64_t worst_delta =
          std::max(best.global_lock_delta, r.global_lock_delta);
      const double worst_hit = i == 0 ? r.pool_hit_rate
                                      : std::min(best.pool_hit_rate,
                                                 r.pool_hit_rate);
      best = r;
      best.global_lock_delta = worst_delta;
      best.pool_hit_rate = worst_hit;
    } else {
      best.global_lock_delta =
          std::max(best.global_lock_delta, r.global_lock_delta);
      best.pool_hit_rate = std::min(best.pool_hit_rate, r.pool_hit_rate);
    }
  }
  return best;
}

double memcpy_ref_mbps() {
  // Same normalization reference as the other data-plane benches:
  // single-thread 64 KiB memcpy, best of 5.
  constexpr std::size_t kChunk = 65536;
  constexpr int kChunks = 4096;
  util::Bytes src(kChunk, 0xaa), dst(kChunk, 0);
  volatile std::uint8_t guard = 0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChunks; ++i) {
      std::copy(src.begin(), src.end(), dst.begin());
      guard = guard + dst[kChunk - 1];
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, kChunk * static_cast<double>(kChunks) / secs / 1e6);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Worker scaling (shared-nothing pools) ===\n\n");
  rwbench::JsonSummary json("worker_scaling");
  json.meta("rw_obs_enabled", RW_OBS_ENABLED != 0);
  json.meta("quick", quick);
  json.meta("hardware_threads", static_cast<unsigned long long>(hw));
  json.meta("ring_bytes", static_cast<unsigned long long>(kRing));
  const double memcpy_ref = memcpy_ref_mbps();
  json.meta("memcpy_ref_mbytes_per_sec", memcpy_ref);

  std::printf("%8s %7s %8s %8s %14s %10s %11s %9s %7s\n", "workers", "chains",
              "filters", "payload", "packets/s", "MB/s", "vs_memcpy",
              "hit_rate", "g.lock");
  const int reps = quick ? 1 : 3;
  bool failed = false;
  // headline pkt/s by worker count, for the 4-vs-1 speedup gate.
  double headline_1w = 0.0, headline_4w = 0.0;
  const auto bench = [&](std::size_t workers, std::size_t chains,
                         std::size_t filters, std::size_t payload,
                         std::uint64_t per_chain, bool headline) {
    const std::string row = "scale/" + std::to_string(workers) + "w/" +
                            std::to_string(chains) + "c/" +
                            std::to_string(filters) + "f/" +
                            std::to_string(payload) + "B";
    const Result r =
        run(row, workers, chains, filters, payload, per_chain, reps);
    if (!r.conserved) {
      failed = true;
      return;
    }
    const double ratio = r.mbytes_per_sec / memcpy_ref;
    std::printf("%8zu %7zu %8zu %8zu %14.0f %10.1f %10.4fx %9.4f %7llu\n",
                workers, chains, filters, payload, r.packets_per_sec,
                r.mbytes_per_sec, ratio, r.pool_hit_rate,
                static_cast<unsigned long long>(r.global_lock_delta));
    json.row({{"name", row},
              {"workers", static_cast<unsigned long long>(workers)},
              {"chains", static_cast<unsigned long long>(chains)},
              {"filters", static_cast<unsigned long long>(filters)},
              {"payload_bytes", static_cast<unsigned long long>(payload)},
              {"packets_per_sec", r.packets_per_sec},
              {"mbytes_per_sec", r.mbytes_per_sec},
              {"vs_memcpy", ratio},
              {"pool_hit_rate", r.pool_hit_rate},
              {"global_lock_delta",
               static_cast<unsigned long long>(r.global_lock_delta)}});
    if (headline && workers == 1) headline_1w = r.packets_per_sec;
    if (headline && workers == 4) headline_4w = r.packets_per_sec;

    // Shared-nothing gate: the steady-state window must not acquire the
    // global pool's mutex, on any row, in any mode.
    if (r.global_lock_delta != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu-worker row acquired the global pool mutex "
                   "%llu times in steady state (must be 0)\n",
                   workers,
                   static_cast<unsigned long long>(r.global_lock_delta));
      failed = true;
    }
    // Recycling gate: the warm worker arenas must serve (nearly) every
    // steady-state acquire locally.
    if (headline && r.pool_hit_rate < 0.99) {
      std::fprintf(stderr,
                   "FAIL: headline %zu-worker pool hit rate %.4f < 0.99\n",
                   workers, r.pool_hit_rate);
      failed = true;
    }
  };

  // Payload sweep, single worker: the per-packet pool economy across size
  // classes. Committed-baseline rows (machine-independent vs_memcpy).
  const std::uint64_t budget = quick ? 4'000 : 40'000;
  bench(1, 4, 2, 256, budget, false);
  bench(1, 4, 2, 4096, budget / 2, false);

  // Headline matrix: 8 chains x 8 pass-through filters x 1 KiB payload,
  // scaled across workers. The 1-worker row is committed to the baseline;
  // the multi-worker rows exist wherever the host can run them and feed
  // the 4-vs-1 speedup gate.
  bench(1, 8, 8, 1024, budget / 8, true);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    if (hw >= 2) bench(workers, 8, 8, 1024, budget / 8, true);
  }

  json.write();

  if (headline_1w > 0.0 && headline_4w > 0.0 && hw >= 4 && !quick) {
    const double speedup = headline_4w / headline_1w;
    std::printf("\n4-worker speedup over 1 worker (8x8f/1KiB): %.2fx\n",
                speedup);
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: 4-worker aggregate speedup %.2fx < 3.0x on a "
                   "%zu-thread host\n",
                   speedup, hw);
      failed = true;
    }
  } else {
    std::printf(
        "\n4-vs-1 speedup gate skipped (hardware_threads=%zu%s); the gate "
        "needs >= 4 threads and full mode.\n",
        hw, quick ? ", --quick" : "");
  }

  std::printf(
      "\nshape check: packets/s should rise near-linearly with workers while\n"
      "hit_rate stays >= 0.99 and g.lock stays 0 — each worker's buffers\n"
      "cycle entirely through its own arena once warm.\n");
  return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
