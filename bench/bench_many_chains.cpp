// Many-chains scalability: aggregate and per-chain throughput of the
// event-driven data plane as the number of concurrent filter chains grows
// far past the thread-per-filter limit (docs/data_plane.md, "Worker
// model"). Every chain here is fully event-capable — QueuePacketSource
// head, pass-through PacketFilter, its worker's counting sink
// (bench_sink.h) as tail — so a (workers=1,
// chains=10000) row really is 30k logical filters multiplexed onto ONE OS
// thread; thread-per-filter would need 30k threads and ~240 GB of default
// stacks for the same load.
//
// Reported per row:
//   * packets_per_sec / mbytes_per_sec — aggregate across all chains;
//   * vs_memcpy       — MB/s normalized by a same-run memcpy baseline, the
//                       machine-independent number CI gates on
//                       (tools/bench_compare.py --rwbench against
//                       bench/baselines/many_chains_baseline.json);
//   * per_chain_packets_per_sec — aggregate / chains (fair-share rate).
//
// Built-in acceptance gates (exit 1 on violation): every row delivers
// exactly the packets and bytes it sent (a row whose packets are still
// missing after its deadline exits at once, named), and the 10k-chain
// single-worker row must sustain at least HALF the aggregate vs_memcpy of
// the single-chain row from the same run — i.e. multiplexing 10,000
// chains costs at most 2x over running one chain flat out.
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
#include "util/bytes.h"

using namespace rapidware;

namespace {

class PassThroughPacketFilter final : public core::PacketFilter {
 public:
  using PacketFilter::PacketFilter;

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
};

// Each hop's ring bounds how many frames one worker wakeup can batch (the
// drive's budget only helps if frames are queued): 8 KiB holds ~31 frames
// of 256 B, deep enough to amortize dispatch.
constexpr std::size_t kRing = 8192;
constexpr std::size_t kPacketBytes = 256;

struct Result {
  double packets_per_sec;
  double mbytes_per_sec;
  double secs;
  bool conserved;
};

Result run_once(const std::string& row, std::size_t workers,
                std::size_t chains, std::uint64_t packets_per_chain) {
  core::WorkerPool pool(workers);
  // One counting sink per worker, shared by the chains placed there.
  std::vector<std::shared_ptr<rwbench::CountingPacketSink>> sinks;
  std::vector<std::size_t> hosted(workers, 0);
  for (std::size_t w = 0; w < workers; ++w) {
    sinks.push_back(std::make_shared<rwbench::CountingPacketSink>());
  }

  std::vector<std::shared_ptr<core::QueuePacketSource>> sources;
  std::vector<std::unique_ptr<core::FilterChain>> live;
  sources.reserve(chains);
  live.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    core::EventLoop& loop = pool.next();
    std::size_t w = 0;
    while (&pool.worker(w) != &loop) ++w;
    ++hosted[w];
    auto source = std::make_shared<core::QueuePacketSource>();
    auto chain = std::make_unique<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("rx", source),
        std::make_shared<core::PacketWriterEndpoint>("tx", sinks[w], kRing));
    chain->host_on(loop);
    chain->start();
    chain->insert(std::make_shared<PassThroughPacketFilter>("pass", kRing), 0);
    sources.push_back(std::move(source));
    live.push_back(std::move(chain));
  }
  // Nothing is delivered before the first push below, so the marks are in
  // place in time.
  const std::size_t active = static_cast<std::size_t>(
      std::count_if(hosted.begin(), hosted.end(),
                    [](std::size_t n) { return n > 0; }));
  rwbench::Countdown done(active);
  for (std::size_t w = 0; w < workers; ++w) {
    if (hosted[w] > 0) sinks[w]->arrive_at(hosted[w] * packets_per_chain, done);
  }

  const util::Bytes packet(kPacketBytes, 0x5a);
  const std::uint64_t total = packets_per_chain * chains;
  const auto t0 = std::chrono::steady_clock::now();
  // Round-robin bursts across chains, the arrival pattern a busy proxy
  // sees: every chain stays concurrently in flight, and each worker
  // wakeup finds a small batch queued (the drive's budget loop exists for
  // exactly this), instead of paying one dispatch per lone packet.
  constexpr std::uint64_t kBurst = 64;
  for (std::uint64_t p = 0; p < packets_per_chain; p += kBurst) {
    const std::uint64_t n = std::min(kBurst, packets_per_chain - p);
    for (auto& source : sources) {
      for (std::uint64_t b = 0; b < n; ++b) source->push(packet);
    }
  }
  for (auto& source : sources) source->finish();
  rwbench::await_or_exit(done, row);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Teardown off the clock: async begin_shutdown for all chains first, so
  // the final drives retire in parallel, then the destructors just join.
  for (auto& chain : live) chain->begin_shutdown();
  live.clear();
  pool.stop();

  // Counted after teardown, so a duplicate delivered late still shows.
  std::uint64_t delivered = 0, delivered_bytes = 0;
  for (const auto& sink : sinks) {
    delivered += sink->packets();
    delivered_bytes += sink->bytes();
  }
  Result r;
  r.packets_per_sec = static_cast<double>(total) / secs;
  r.mbytes_per_sec = static_cast<double>(delivered_bytes) / secs / 1e6;
  r.secs = secs;
  r.conserved = rwbench::conserved(row, total, total * kPacketBytes,
                                   delivered, delivered_bytes);
  return r;
}

Result run(const std::string& row, std::size_t workers, std::size_t chains,
           std::uint64_t packets_per_chain, int reps) {
  // Best of reps, same envelope logic as bench_chain_overhead: the fastest
  // run is the one least distorted by unrelated scheduler noise.
  Result best{};
  for (int i = 0; i < reps; ++i) {
    const Result r = run_once(row, workers, chains, packets_per_chain);
    if (!r.conserved) return r;  // one lossy rep fails the row
    if (r.packets_per_sec > best.packets_per_sec) best = r;
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
  std::printf("=== Many-chains scalability (event workers) ===\n\n");
  rwbench::JsonSummary json("many_chains");
  json.meta("rw_obs_enabled", RW_OBS_ENABLED != 0);
  json.meta("quick", quick);
  json.meta("hardware_threads", static_cast<unsigned long long>(hw));
  json.meta("packet_bytes", static_cast<unsigned long long>(kPacketBytes));
  json.meta("ring_bytes", static_cast<unsigned long long>(kRing));
  const double memcpy_ref = memcpy_ref_mbps();
  json.meta("memcpy_ref_mbytes_per_sec", memcpy_ref);

  std::printf("%8s %8s %10s %14s %12s %11s %14s\n", "workers", "chains",
              "pkts/chain", "packets/s", "MB/s", "vs_memcpy", "per-chain p/s");
  const int reps = quick ? 1 : 3;
  double ratio_single = 0.0, ratio_dense = 0.0;
  bool conserved = true;
  const auto bench = [&](std::size_t workers, std::size_t chains,
                         std::uint64_t per_chain) {
    const std::string row =
        "many/" + std::to_string(workers) + "/" + std::to_string(chains);
    const Result r = run(row, workers, chains, per_chain, reps);
    if (!r.conserved) {
      conserved = false;
      return;
    }
    const double ratio = r.mbytes_per_sec / memcpy_ref;
    if (workers == 1 && chains == 1) ratio_single = ratio;
    if (workers == 1 && chains == 10'000) ratio_dense = ratio;
    std::printf("%8zu %8zu %10llu %14.0f %12.1f %10.4fx %14.1f\n", workers,
                chains, static_cast<unsigned long long>(per_chain),
                r.packets_per_sec, r.mbytes_per_sec, ratio,
                r.packets_per_sec / static_cast<double>(chains));
    json.row({{"name", row},
              {"workers", static_cast<unsigned long long>(workers)},
              {"chains", static_cast<unsigned long long>(chains)},
              {"packets_per_chain", static_cast<unsigned long long>(per_chain)},
              {"packets_per_sec", r.packets_per_sec},
              {"mbytes_per_sec", r.mbytes_per_sec},
              {"vs_memcpy", ratio},
              {"per_chain_packets_per_sec",
               r.packets_per_sec / static_cast<double>(chains)}});
  };

  // Single worker: chain-count sweep up to the 10k-chains-per-core claim.
  // Total packets stay roughly constant so each row runs in similar time.
  const std::uint64_t budget = quick ? 60'000 : 240'000;
  for (const std::size_t chains :
       {std::size_t{1}, std::size_t{100}, std::size_t{1000},
        std::size_t{10'000}}) {
    bench(1, chains, std::max<std::uint64_t>(64, budget / chains));
  }
  std::printf("\n");
  // All workers: the same dense load spread across the pool. Chain count
  // scales with the pool but stays bounded — ring storage is at most
  // 16 KiB/chain (the head's own ring is never written).
  const std::size_t workers = std::min<std::size_t>(hw, 8);
  if (workers > 1) {
    const std::size_t dense = std::min<std::size_t>(4'000 * workers, 16'000);
    bench(workers, workers, budget / workers);
    bench(workers, dense, std::max<std::uint64_t>(64, budget / dense));
  }

  json.write();

  std::printf(
      "\nshape check: aggregate throughput should stay flat (within ~2x)\n"
      "from 1 chain to 10k chains on one worker — the multiplexed loop\n"
      "replaces parked threads, it does not add per-chain cost. per-chain\n"
      "fair-share rate then falls as 1/chains by construction.\n");

  // The within-2x claim, with a 10% measurement allowance on top (the
  // dense row is the most scheduler-noise-sensitive number in the suite).
  // --quick runs one rep and exists for smoke coverage, so it reports the
  // ratio without failing on it; the full best-of-reps run enforces.
  const bool ok =
      ratio_single <= 0.0 || ratio_dense >= 0.45 * ratio_single;
  std::printf(
      "acceptance: 10k chains/core at %.4fx memcpy vs %.4fx single-chain "
      "(within-2x gate %s%s)\n",
      ratio_dense, ratio_single, ok ? "ok" : "FAILED",
      quick ? ", advisory under --quick" : "");
  return conserved && (ok || quick) ? 0 : 1;
}
