// Microbenchmarks of the detachable-stream data plane: what one stream hop
// costs relative to the machine's own memory bandwidth. Each row prices a
// hop the way a chain on one worker runs it, with no thread: the upstream
// stage writes until the ring refuses, then the downstream stage drains it
// until would-block. Every throughput row is normalized against a memcpy
// reference measured beside it ("vs_memcpy"), so the committed baseline
// JSON compares across machines: "framed transport used to run at 0.7x
// memcpy on whatever host produced the baseline, now it is 0.4x" is a code
// regression no matter the hardware (tools/bench_compare.py --rwbench
// enforces this in CI). The reference is timed rep for rep with the row,
// so memory-bandwidth drift during a run moves both sides of the ratio.
// Every row checks that it delivered exactly the bytes written before it
// reports a throughput.
//
// Rows:
//   * memcpy           — the floor: move bytes with no stream
//   * pipe             — try_write_some chunks, drained by poll_read_borrow
//                        into a reused buffer (a ByteFilter hop)
//   * framed           — one try_write_frame per frame, drained by
//                        util::FrameReader::poll (a PacketFilter hop)
//   * framed_wbatch8   — 8 frames per try_write_vec transaction, same reader
//   * pause_reconnect  — the control-plane primitive by itself
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/detachable_stream.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"
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

/// The normalization reference: single-thread memcpy of 64 KiB chunks, the
/// best the memory system does with zero synchronization.
constexpr std::size_t kRefChunk = 65536;

/// One timed pass of `chunks` memcpys of `chunk` bytes; returns MB/s.
double memcpy_mbps(std::size_t chunk, std::int64_t chunks) {
  util::Bytes src(chunk, 0xaa), dst(chunk, 0);
  volatile std::uint8_t guard = 0;
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < chunks; ++i) {
    std::memcpy(dst.data(), src.data(), chunk);
    guard = guard + dst[chunk - 1];
  }
  return static_cast<double>(chunk) * static_cast<double>(chunks) /
         secs_since(t0) / 1e6;
}

/// Repetitions per row, and the size of one reference pass.
struct Sizing {
  int reps;
  std::int64_t ref_chunks;
};

/// A row's best MB/s and the best reference MB/s timed beside it.
struct Rate {
  double mbps = 0.0;
  double ref_mbps = 0.0;
};

/// Runs `body` (which moves `total_bytes`) `reps` times, each run right
/// after one reference pass; keeps the best of each side. Best-of-N
/// because on a contended CI host the fastest run is the one least
/// distorted by scheduling noise.
template <typename Body>
Rate best_mbps(const Sizing& sizing, double total_bytes, Body&& body) {
  Rate rate;
  for (int r = 0; r < sizing.reps; ++r) {
    rate.ref_mbps =
        std::max(rate.ref_mbps, memcpy_mbps(kRefChunk, sizing.ref_chunks));
    const auto t0 = Clock::now();
    body();
    rate.mbps = std::max(rate.mbps, total_bytes / secs_since(t0) / 1e6);
  }
  return rate;
}

Rate bench_memcpy(std::size_t chunk, std::int64_t total_chunks,
                  const Sizing& sizing) {
  const double total =
      static_cast<double>(chunk) * static_cast<double>(total_chunks);
  return best_mbps(sizing, total, [&] { memcpy_mbps(chunk, total_chunks); });
}

Rate bench_pipe(std::size_t chunk, std::int64_t total_chunks,
                const Sizing& sizing) {
  const double total =
      static_cast<double>(chunk) * static_cast<double>(total_chunks);
  return best_mbps(sizing, total, [&] {
    core::DetachableInputStream dis;
    core::DetachableOutputStream dos;
    core::connect(dos, dis);
    const util::Bytes data(chunk, 0x5a);
    util::Bytes buf(chunk);
    std::int64_t written = 0;
    std::int64_t delivered = 0;
    // The downstream stage's turn: copy out everything buffered, one
    // chunk-sized read at a time, until would-block (or EOF: true).
    const auto drain = [&] {
      bool end = false;
      while (const std::size_t n = dis.poll_read_borrow(
                 chunk,
                 [&](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
                   std::memcpy(buf.data(), a.data(), a.size());
                   if (!b.empty()) {
                     std::memcpy(buf.data() + a.size(), b.data(), b.size());
                   }
                   return a.size() + b.size();
                 },
                 &end)) {
        delivered += static_cast<std::int64_t>(n);
      }
      return end;
    };
    for (std::int64_t i = 0; i < total_chunks; ++i) {
      util::ByteSpan rest(data);
      while (!rest.empty()) {
        const std::size_t n = dos.try_write_some(rest);
        written += static_cast<std::int64_t>(n);
        rest = rest.subspan(n);
        if (!rest.empty()) drain();  // the ring refused: the reader's turn
      }
    }
    dos.close();
    while (!drain()) {
    }
    check_delivered("pipe/" + std::to_string(chunk), delivered, written);
  });
}

/// Framed transport: `batch` frames per writer transaction (batch == 1 is
/// one try_write_frame per frame; batch > 1 packs [header, payload] pairs
/// into a single try_write_vec, which the stream commits atomically). The
/// reader recycles each payload through its own pool, as a pass-through
/// PacketFilter returns it to its worker's arena.
Rate bench_framed(const std::string& series, std::size_t payload,
                  std::int64_t total_frames, std::size_t batch,
                  const Sizing& sizing, double* batching_factor) {
  const double total =
      static_cast<double>(payload) * static_cast<double>(total_frames);
  return best_mbps(sizing, total, [&] {
    core::DetachableInputStream dis;
    core::DetachableOutputStream dos;
    core::connect(dos, dis);
    const util::Bytes data(payload, 0x5a);
    std::uint8_t header[util::kFrameHeaderSize];
    header[0] = static_cast<std::uint8_t>(util::kFrameMagic & 0xff);
    header[1] = static_cast<std::uint8_t>(util::kFrameMagic >> 8);
    const auto len = static_cast<std::uint32_t>(payload);
    header[2] = static_cast<std::uint8_t>(len & 0xff);
    header[3] = static_cast<std::uint8_t>((len >> 8) & 0xff);
    header[4] = static_cast<std::uint8_t>((len >> 16) & 0xff);
    header[5] = static_cast<std::uint8_t>((len >> 24) & 0xff);
    std::vector<util::ByteSpan> segments;
    util::BufferPool pool;
    util::FrameReader fr(dis, pool);
    std::int64_t written = 0;
    std::int64_t delivered = 0;
    // The downstream stage's turn: decode until would-block (or EOF: true).
    const auto drain = [&] {
      bool end = false;
      while (auto frame = fr.poll(&end)) {
        delivered += static_cast<std::int64_t>(frame->size());
        pool.release(std::move(*frame));
      }
      return end;
    };
    for (std::int64_t sent = 0; sent < total_frames;) {
      const auto now = std::min<std::int64_t>(
          static_cast<std::int64_t>(batch), total_frames - sent);
      bool landed = false;
      if (batch <= 1) {
        landed = util::try_write_frame(dos, data);
      } else {
        segments.clear();
        for (std::int64_t i = 0; i < now; ++i) {
          segments.emplace_back(header, sizeof header);
          segments.emplace_back(data.data(), data.size());
        }
        landed = dos.try_write_vec(segments);
      }
      if (!landed) {
        drain();  // the ring refused: the reader's turn
        continue;
      }
      sent += now;
      written += now * static_cast<std::int64_t>(payload);
    }
    dos.close();
    while (!drain()) {
    }
    if (fr.refills() > 0) {
      *batching_factor = static_cast<double>(fr.frames()) /
                         static_cast<double>(fr.refills());
    }
    check_delivered(series, delivered, written);
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
  const Sizing sizing{reps, 4096 * scale};

  std::printf("=== Detachable-stream data-plane throughput ===\n\n");
  rwbench::JsonSummary json("stream_throughput");
  json.meta("rw_obs_enabled", RW_OBS_ENABLED != 0);
  json.meta("quick", quick);

  std::printf("%-24s %12s %12s %10s\n", "series", "MB/s", "memcpy MB/s",
              "vs_memcpy");
  const auto emit = [&](const std::string& name, std::size_t bytes,
                        const Rate& rate, rwbench::JsonFields extra = {}) {
    const double ratio = rate.mbps / rate.ref_mbps;
    std::printf("%-24s %12.0f %12.0f %9.3fx\n", name.c_str(), rate.mbps,
                rate.ref_mbps, ratio);
    rwbench::JsonFields fields = {{"name", name},
                                  {"bytes", static_cast<long long>(bytes)},
                                  {"mbytes_per_sec", rate.mbps},
                                  {"memcpy_ref_mbytes_per_sec", rate.ref_mbps},
                                  {"vs_memcpy", ratio}};
    for (auto& f : extra) fields.push_back(std::move(f));
    json.row(std::move(fields));
  };

  emit("memcpy/4096", 4096, bench_memcpy(4096, 16384 * scale, sizing));
  emit("memcpy/65536", 65536, bench_memcpy(65536, 4096 * scale, sizing));

  emit("pipe/4096", 4096, bench_pipe(4096, 8192 * scale, sizing));
  emit("pipe/65536", 65536, bench_pipe(65536, 1024 * scale, sizing));

  const std::int64_t small_frames = 32768 * scale;
  const std::int64_t big_frames = 8192 * scale;
  const auto framed = [&](const std::string& series, std::size_t payload,
                          std::int64_t frames, std::size_t batch) {
    double batching = 0.0;
    const Rate rate =
        bench_framed(series, payload, frames, batch, sizing, &batching);
    emit(series, payload, rate, {{"frames_per_refill", batching}});
  };
  framed("framed/320", 320, small_frames, 1);
  framed("framed/4096", 4096, big_frames, 1);
  framed("framed_wbatch8/320", 320, small_frames, 8);
  framed("framed_wbatch8/4096", 4096, big_frames, 8);

  const double pause_us = bench_pause_reconnect_us(quick ? 20'000 : 100'000);
  std::printf("%-24s %12.2f us/cycle\n", "pause_reconnect", pause_us);
  json.row({{"name", "pause_reconnect"}, {"micros_per_cycle", pause_us}});

  json.write();
  std::printf(
      "\nshape check: a hop is two copies (into the ring, out of it) plus\n"
      "one lock trip per write and per refill, so pipe approaches half of\n"
      "memcpy at large chunks; framed decodes every frame a refill finds,\n"
      "and wbatch8 also amortizes the writer's lock trip over eight\n"
      "frames. CI gates on vs_memcpy, not absolute MB/s.\n");
  return 0;
}
