// Microbenchmarks of the detachable-stream data plane: what the
// pause/reconnect capability costs relative to the machine's own memory
// bandwidth. Every throughput row is normalized against a same-run memcpy
// baseline ("vs_memcpy"), so the committed baseline JSON compares across
// machines: "framed transport used to run at 0.7x memcpy on whatever host
// produced the baseline, now it is 0.4x" is a code regression no matter the
// hardware (tools/bench_compare.py --rwbench enforces this in CI).
//
// Rows:
//   * memcpy              — the floor: move bytes with no concurrency
//   * raw_pipe            — one writer thread + one reader thread (read_some)
//   * framed_legacy       — length-prefix codec, one read_frame() per frame
//   * framed_batched      — util::FrameReader, many frames per lock trip
//   * framed_wbatch8      — 8 frames per write_vec transaction + FrameReader
//   * pause_reconnect     — the control-plane primitive by itself
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/detachable_stream.h"
#include "obs/metrics.h"
#include "util/frame_reader.h"
#include "util/framing.h"

using namespace rapidware;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Conservation: a row that delivered other than exactly what its writer
/// wrote fails the run, named, instead of reporting a throughput.
void check_delivered(const std::string& series, std::int64_t delivered,
                     std::int64_t written) {
  if (delivered != written) {
    std::fprintf(stderr, "FAIL: %s delivered %lld of %lld bytes written\n",
                 series.c_str(), static_cast<long long>(delivered),
                 static_cast<long long>(written));
    std::exit(EXIT_FAILURE);
  }
}

/// Runs `body` (which moves `total_bytes`) `reps` times; returns the best
/// MB/s. Best-of-N because on a contended CI host the fastest run is the
/// one least distorted by scheduling noise.
template <typename Body>
double best_mbps(int reps, double total_bytes, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    best = std::max(best, total_bytes / secs_since(t0) / 1e6);
  }
  return best;
}

double bench_memcpy(std::size_t chunk, std::int64_t total_chunks, int reps) {
  util::Bytes src(chunk, 0xaa), dst(chunk, 0);
  volatile std::uint8_t guard = 0;
  const double total =
      static_cast<double>(chunk) * static_cast<double>(total_chunks);
  return best_mbps(reps, total, [&] {
    for (std::int64_t i = 0; i < total_chunks; ++i) {
      std::memcpy(dst.data(), src.data(), chunk);
      guard = guard + dst[chunk - 1];
    }
  });
}

double bench_raw_pipe(std::size_t chunk, std::int64_t total_chunks, int reps) {
  const double total =
      static_cast<double>(chunk) * static_cast<double>(total_chunks);
  return best_mbps(reps, total, [&] {
    core::DetachableInputStream dis;
    core::DetachableOutputStream dos;
    core::connect(dos, dis);
    std::thread writer([&] {
      util::Bytes data(chunk, 0x5a);
      for (std::int64_t i = 0; i < total_chunks; ++i) dos.write(data);
      dos.close();
    });
    util::Bytes buf(chunk);
    std::int64_t delivered = 0;
    while (const std::size_t n = dis.read_some(buf)) {
      delivered += static_cast<std::int64_t>(n);
    }
    writer.join();
    check_delivered("raw_pipe/" + std::to_string(chunk), delivered,
                    static_cast<std::int64_t>(chunk) * total_chunks);
  });
}

enum class Reader { kLegacy, kBatched };

/// Framed transport: `batch` frames per writer transaction (batch == 1 is
/// one write_frame call per frame; batch > 1 packs [header, payload] pairs
/// into a single write_vec, which the stream commits atomically).
double bench_framed(const std::string& series, std::size_t payload,
                    std::int64_t total_frames, std::size_t batch,
                    Reader reader, int reps,
                    double* batching_factor = nullptr) {
  const double total =
      static_cast<double>(payload) * static_cast<double>(total_frames);
  return best_mbps(reps, total, [&] {
    core::DetachableInputStream dis;
    core::DetachableOutputStream dos;
    core::connect(dos, dis);
    std::thread writer([&] {
      util::Bytes data(payload, 0x5a);
      if (batch <= 1) {
        for (std::int64_t i = 0; i < total_frames; ++i) {
          util::write_frame(dos, data);
        }
      } else {
        std::uint8_t header[util::kFrameHeaderSize];
        header[0] = static_cast<std::uint8_t>(util::kFrameMagic & 0xff);
        header[1] = static_cast<std::uint8_t>(util::kFrameMagic >> 8);
        const auto len = static_cast<std::uint32_t>(payload);
        header[2] = static_cast<std::uint8_t>(len & 0xff);
        header[3] = static_cast<std::uint8_t>((len >> 8) & 0xff);
        header[4] = static_cast<std::uint8_t>((len >> 16) & 0xff);
        header[5] = static_cast<std::uint8_t>((len >> 24) & 0xff);
        std::vector<util::ByteSpan> segments;
        for (std::int64_t sent = 0; sent < total_frames;) {
          const auto now = std::min<std::int64_t>(
              static_cast<std::int64_t>(batch), total_frames - sent);
          segments.clear();
          for (std::int64_t i = 0; i < now; ++i) {
            segments.emplace_back(header, sizeof header);
            segments.emplace_back(data.data(), data.size());
          }
          dos.write_vec(segments);
          sent += now;
        }
      }
      dos.close();
    });
    std::int64_t delivered = 0;
    if (reader == Reader::kLegacy) {
      while (const auto frame = util::read_frame(dis)) {
        delivered += static_cast<std::int64_t>(frame->size());
      }
    } else {
      util::FrameReader fr(dis);
      while (const auto frame = fr.next()) {
        delivered += static_cast<std::int64_t>(frame->size());
      }
      if (batching_factor != nullptr && fr.refills() > 0) {
        *batching_factor = static_cast<double>(fr.frames()) /
                           static_cast<double>(fr.refills());
      }
    }
    writer.join();
    check_delivered(series, delivered,
                    static_cast<std::int64_t>(payload) * total_frames);
  });
}

double bench_pause_reconnect_us(int cycles) {
  core::DetachableInputStream dis_a, dis_b;
  core::DetachableOutputStream dos;
  core::connect(dos, dis_a);
  bool on_a = true;
  const auto t0 = Clock::now();
  for (int i = 0; i < cycles; ++i) {
    dos.pause();
    dos.reconnect(on_a ? dis_b : dis_a);
    on_a = !on_a;
  }
  return secs_since(t0) / cycles * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: CI smoke sizing (the normalized ratios are what CI compares,
  // and those stabilize long before the full run completes).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  // Full-mode sizing is what CI gates on: best-of-7 over runs long enough
  // (tens of ms each) that the envelope is stable to a few percent even on
  // a single-core, shared host. --quick is for local iteration only.
  const int reps = quick ? 3 : 7;
  const std::int64_t scale = quick ? 1 : 4;

  std::printf("=== Detachable-stream data-plane throughput ===\n\n");
  rwbench::JsonSummary json("stream_throughput");
  json.meta("rw_obs_enabled", RW_OBS_ENABLED != 0);
  json.meta("quick", quick);

  // The normalization denominator: single-thread memcpy at the largest
  // chunk, i.e. the best the memory system does with zero synchronization.
  const double memcpy_ref = bench_memcpy(65536, 4096 * scale, reps);
  json.meta("memcpy_ref_mbytes_per_sec", memcpy_ref);
  std::printf("%-24s %12.0f MB/s  (normalization reference)\n\n",
              "memcpy/65536", memcpy_ref);

  std::printf("%-24s %12s %10s\n", "series", "MB/s", "vs_memcpy");
  const auto emit = [&](const std::string& name, std::size_t bytes,
                        double mbps, rwbench::JsonFields extra = {}) {
    const double ratio = mbps / memcpy_ref;
    std::printf("%-24s %12.0f %9.3fx\n", name.c_str(), mbps, ratio);
    rwbench::JsonFields fields = {{"name", name},
                                  {"bytes", static_cast<long long>(bytes)},
                                  {"mbytes_per_sec", mbps},
                                  {"vs_memcpy", ratio}};
    for (auto& f : extra) fields.push_back(std::move(f));
    json.row(std::move(fields));
  };

  emit("memcpy/4096", 4096, bench_memcpy(4096, 16384 * scale, reps));
  emit("memcpy/65536", 65536, memcpy_ref);

  emit("raw_pipe/4096", 4096, bench_raw_pipe(4096, 8192 * scale, reps));
  emit("raw_pipe/65536", 65536, bench_raw_pipe(65536, 1024 * scale, reps));

  const std::int64_t small_frames = 32768 * scale;
  const std::int64_t big_frames = 8192 * scale;
  const auto framed = [&](const std::string& series, std::size_t payload,
                          std::int64_t frames, std::size_t batch,
                          Reader reader, bool report_batching) {
    double batching = 0.0;
    const double mbps = bench_framed(series, payload, frames, batch, reader,
                                     reps, &batching);
    rwbench::JsonFields extra;
    if (report_batching) extra.push_back({"frames_per_refill", batching});
    emit(series, payload, mbps, std::move(extra));
  };
  framed("framed_legacy/320", 320, small_frames, 1, Reader::kLegacy, false);
  framed("framed_legacy/4096", 4096, big_frames, 1, Reader::kLegacy, false);
  framed("framed_batched/320", 320, small_frames, 1, Reader::kBatched, true);
  framed("framed_batched/4096", 4096, big_frames, 1, Reader::kBatched, true);
  framed("framed_wbatch8/320", 320, small_frames, 8, Reader::kBatched, false);
  framed("framed_wbatch8/4096", 4096, big_frames, 8, Reader::kBatched, false);

  const double pause_us = bench_pause_reconnect_us(quick ? 20'000 : 100'000);
  std::printf("%-24s %12.2f us/cycle\n", "pause_reconnect", pause_us);
  json.row({{"name", "pause_reconnect"}, {"micros_per_cycle", pause_us}});

  json.write();
  std::printf(
      "\nshape check: raw_pipe approaches memcpy at large chunks (two copies\n"
      "plus synchronization); framed_batched beats framed_legacy by\n"
      "amortizing one lock trip over many frames; wbatch8 additionally\n"
      "amortizes the writer side. CI gates on vs_memcpy, not absolute MB/s.\n");
  return 0;
}
