// Fleet-scale simulation: virtual-time throughput + adaptive-FEC recovery.
//
// Two jobs in one binary:
//
//  1. Perf gate ("scale/<stations>" rows): how many station·virtual-seconds
//     per wall-clock second the discrete-event fleet core sustains. The
//     machine-independent number is vs_memcpy — station·vsec/s divided by
//     the same run's 64 KiB memcpy MB/s — gated by tools/bench_compare.py
//     against bench/baselines/sim_scale_baseline.json.
//
//  2. Recovery sweep ("recovery/<distance>m" rows, no vs_memcpy, so the
//     gate skips them): the paper's Figure-7 closed-loop story. Same fleet,
//     controller off vs on, at several distances along the calibrated
//     WaveLAN loss curve. Source of the EXPERIMENTS.md "Adaptive FEC at
//     scale" table.
//
// The headline run doubles as the CI determinism probe:
//
//   bench_sim_scale --headline-only --stats-out run1.txt
//   bench_sim_scale --headline-only --stats-out run2.txt
//   cmp run1.txt run2.txt          # must be byte-identical
//
// Flags (env fallback in parens): --stations N (RW_SIM_STATIONS),
// --seconds S of virtual time (RW_SIM_SECONDS), --seed X (RW_SIM_SEED),
// --mobile F, --stats-out PATH, --headline-only, --quick.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_json.h"
#include "sim/fleet.h"
#include "util/clock.h"

using namespace rapidware;

namespace {

double memcpy_ref_mbps() {
  // Same normalization reference as bench_stream_throughput: single-thread
  // 64 KiB memcpy, best of 5.
  constexpr std::size_t kChunk = 65536;
  constexpr int kChunks = 4096;
  std::vector<std::uint8_t> src(kChunk, 0xaa), dst(kChunk, 0);
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

struct RunResult {
  double wall_s = 0.0;
  double station_vsec_per_s = 0.0;  // stations * virtual seconds / wall sec
  double received = 0.0;
  double raw_loss = 0.0;
  double overhead = 1.0;
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::string stats;  // filled only when capture_stats
};

RunResult run_fleet(const sim::FleetConfig& config, double virtual_s,
                    bool capture_stats) {
  const auto t0 = std::chrono::steady_clock::now();
  util::SimClock clock;
  sim::FleetSim fleet(clock, config);
  fleet.run_for(util::seconds_to_micros(virtual_s));
  RunResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.station_vsec_per_s =
      static_cast<double>(config.stations) * virtual_s / r.wall_s;
  r.received = fleet.received_rate();
  r.raw_loss = fleet.raw_loss_rate();
  r.overhead = fleet.fec_overhead();
  r.inserts = fleet.inserts();
  r.removes = fleet.removes();
  if (capture_stats) r.stats = fleet.stats_text();
  return r;
}

long env_or(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtol(v, nullptr, 0) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t stations = static_cast<std::size_t>(env_or("RW_SIM_STATIONS",
                                                         10'000));
  double virtual_s = static_cast<double>(env_or("RW_SIM_SECONDS", 3'600));
  std::uint64_t seed =
      static_cast<std::uint64_t>(env_or("RW_SIM_SEED", 0x5eedf1ee));
  double mobile = 0.25;
  std::string stats_out;
  bool headline_only = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--stations" && next) {
      stations = std::strtoul(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && next) {
      virtual_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seed" && next) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--mobile" && next) {
      mobile = std::strtod(argv[++i], nullptr);
    } else if (arg == "--stats-out" && next) {
      stats_out = argv[++i];
    } else if (arg == "--headline-only") {
      headline_only = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--stations N] [--seconds S] [--seed X] "
                   "[--mobile F] [--stats-out PATH] [--headline-only] "
                   "[--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("=== Fleet-scale adaptive-FEC simulation ===\n\n");

  sim::FleetConfig headline;
  headline.stations = stations;
  headline.seed = seed;
  headline.mobile_fraction = mobile;

  std::printf("headline: %zu stations x %.0f virtual s (seed 0x%llx, "
              "mobile %.2f)\n",
              stations, virtual_s,
              static_cast<unsigned long long>(seed), mobile);
  const RunResult head = run_fleet(headline, virtual_s, !stats_out.empty());
  std::printf("  wall %.2f s  |  %.3g station*vsec/s  |  received %.4f%%  |"
              "  raw loss %.2f%%  |  overhead %.3fx\n\n",
              head.wall_s, head.station_vsec_per_s, 100.0 * head.received,
              100.0 * head.raw_loss, head.overhead);
  if (!stats_out.empty()) {
    std::FILE* f = std::fopen(stats_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", stats_out.c_str());
      return 1;
    }
    std::fwrite(head.stats.data(), 1, head.stats.size(), f);
    std::fclose(f);
    std::printf("stats snapshot: %s (%zu bytes)\n", stats_out.c_str(),
                head.stats.size());
  }
  if (headline_only) return 0;

  rwbench::JsonSummary json("sim_scale");
  const double memcpy_ref = memcpy_ref_mbps();
  json.meta("memcpy_ref_mbytes_per_sec", memcpy_ref);
  json.meta("seed", static_cast<unsigned long long>(seed));
  json.meta("headline_stations", static_cast<unsigned long long>(stations));
  json.meta("headline_virtual_s", virtual_s);
  json.meta("headline_station_vsec_per_s", head.station_vsec_per_s);

  // --- Perf rows: fixed shapes so the baseline names stay stable ----------
  std::printf("--- Simulation throughput (controller on, mobile 0.25) ---\n");
  std::printf("%-14s %14s %12s %10s\n", "stations", "station*vsec/s",
              "vs_memcpy", "wall s");
  const int scale_reps = quick ? 1 : 3;
  for (const std::size_t n : {std::size_t{1'000}, std::size_t{10'000}}) {
    sim::FleetConfig cfg;
    cfg.stations = n;
    cfg.mobile_fraction = 0.25;
    const double vs = quick ? 30.0 : 120.0;
    double best = 0.0, wall = 0.0;
    for (int rep = 0; rep < scale_reps; ++rep) {
      const RunResult r = run_fleet(cfg, vs, false);
      if (r.station_vsec_per_s > best) {
        best = r.station_vsec_per_s;
        wall = r.wall_s;
      }
    }
    const double ratio = best / memcpy_ref;
    std::printf("%-14zu %14.3g %12.4f %10.2f\n", n, best, ratio, wall);
    json.row({{"name", "scale/" + std::to_string(n)},
              {"station_vsec_per_s", best},
              {"vs_memcpy", ratio},
              {"wall_s", wall}});
  }

  // --- Recovery sweep: controller off vs on along the WaveLAN curve -------
  // Informational rows (no vs_memcpy): the EXPERIMENTS.md table source.
  std::printf("\n--- Recovery: controller off vs on (static fleet) ---\n");
  std::printf("%-10s %10s %12s %12s %10s %8s\n", "distance", "raw loss",
              "recv (off)", "recv (on)", "overhead", "inserts");
  const std::size_t sweep_stations = quick ? 10 : 40;
  const double sweep_s = quick ? 60.0 : 300.0;
  for (const double dist : {25.0, 28.0, 30.0, 33.0, 35.0}) {
    sim::FleetConfig cfg;
    cfg.stations = sweep_stations;
    cfg.seed = seed ^ 0xd15ULL;
    cfg.base_distance_m = dist;
    cfg.mobile_fraction = 0.0;
    cfg.controller_enabled = false;
    const RunResult off = run_fleet(cfg, sweep_s, false);
    cfg.controller_enabled = true;
    const RunResult on = run_fleet(cfg, sweep_s, false);
    std::printf("%-10.0f %9.2f%% %11.4f%% %11.4f%% %9.3fx %8llu\n", dist,
                100.0 * off.raw_loss, 100.0 * off.received,
                100.0 * on.received, on.overhead,
                static_cast<unsigned long long>(on.inserts));
    char name[32];
    std::snprintf(name, sizeof name, "recovery/%.0fm", dist);
    json.row({{"name", std::string(name)},
              {"raw_loss", off.raw_loss},
              {"received_off", off.received},
              {"received_on", on.received},
              {"fec_overhead", on.overhead},
              {"inserts", static_cast<unsigned long long>(on.inserts)}});
  }

  std::printf("\n");
  json.write();
  return 0;
}
