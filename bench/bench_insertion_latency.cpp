// Hot insertion/removal latency — the cost of the pause/reconnect protocol.
//
// Section 3 requires that inserting a filter "should not disturb the
// connection"; the price of a splice is a brief stall of the stream while
// the left stream pauses, drains, and reconnects. This bench measures
// insert and remove latency on a live stream versus chain length and
// packet size. Every packet carries its sequence number, and each row
// checks that the sink received exactly 0..N-1 in order: a row that lost,
// duplicated or reordered a packet is named and the run exits 1.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "util/serial.h"
#include "util/stats.h"

using namespace rapidware;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  util::RunningStats insert_us;
  util::RunningStats remove_us;
  std::uint32_t sent = 0;
  std::size_t delivered = 0;
  bool in_order = false;  // the sink received exactly 0..sent-1, in order
};

Result run(std::size_t chain_len, std::size_t packet_bytes, int cycles) {
  auto source = std::make_shared<core::QueuePacketSource>();
  auto sink = std::make_shared<core::CollectingPacketSink>();
  auto chain = std::make_shared<core::FilterChain>(
      std::make_shared<core::PacketReaderEndpoint>("in", source),
      std::make_shared<core::PacketWriterEndpoint>("out", sink));
  chain->start();
  for (std::size_t i = 0; i < chain_len; ++i) {
    chain->insert(std::make_shared<core::NullFilter>("n" + std::to_string(i)),
                  i);
  }

  std::atomic<bool> stop{false};
  std::uint32_t produced = 0;  // producer-owned until join()
  std::thread producer([&] {
    util::Bytes packet(packet_bytes, 0xab);
    while (!stop.load(std::memory_order_acquire)) {
      // Sequence number, little-endian, in the first four payload bytes.
      for (int i = 0; i < 4; ++i) {
        packet[i] = static_cast<std::uint8_t>(produced >> (8 * i));
      }
      ++produced;
      source->push(packet);
      // ~16 KB/s media cadence scaled up: keep the pipe busy but not full.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    source->finish();
  });

  Result result;
  std::shared_ptr<core::Filter> probe =
      std::make_shared<core::NullFilter>("probe");
  const std::size_t pos = chain_len / 2;
  for (int i = 0; i < cycles; ++i) {
    double t0 = now_us();
    chain->insert(probe, pos);
    result.insert_us.add(now_us() - t0);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    t0 = now_us();
    probe = chain->remove(pos);
    result.remove_us.add(now_us() - t0);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  stop.store(true, std::memory_order_release);
  producer.join();
  chain->shutdown();
  const std::vector<util::Bytes> got = sink->packets();
  result.sent = produced;
  result.delivered = got.size();
  result.in_order = got.size() == produced;
  for (std::uint32_t i = 0; result.in_order && i < produced; ++i) {
    result.in_order = got[i].size() >= 4 && util::Reader(got[i]).u32() == i;
  }
  return result;
}

}  // namespace

int main() {
  std::printf("=== Hot insertion / removal latency (live stream) ===\n\n");
  std::printf("%10s %10s %14s %14s %14s %14s %9s\n", "chain len", "pkt B",
              "insert mean", "insert max", "remove mean", "remove max",
              "in order");
  constexpr int kCycles = 200;
  rwbench::JsonSummary json("insertion_latency");
  json.meta("cycles", kCycles);
  std::vector<std::string> failed;
  for (const std::size_t len : {0u, 2u, 4u, 8u}) {
    for (const std::size_t bytes : {256u, 4096u}) {
      const Result r = run(len, bytes, kCycles);
      const std::string row =
          "chain/" + std::to_string(len) + "/" + std::to_string(bytes);
      std::printf("%10zu %10zu %11.1f us %11.1f us %11.1f us %11.1f us %9s\n",
                  len, bytes, r.insert_us.mean(), r.insert_us.max(),
                  r.remove_us.mean(), r.remove_us.max(),
                  r.in_order ? "yes" : "NO");
      if (!r.in_order) {
        std::printf("SPLICE DISTURBED THE STREAM: %s sent %u packets, the "
                    "sink got %zu, not 0..%u in order\n",
                    row.c_str(), r.sent, r.delivered, r.sent - 1);
        failed.push_back(row);
      }
      json.row({{"name", row},
                {"chain_len", len},
                {"packet_bytes", bytes},
                {"insert_mean_us", r.insert_us.mean()},
                {"insert_max_us", r.insert_us.max()},
                {"remove_mean_us", r.remove_us.mean()},
                {"remove_max_us", r.remove_us.max()},
                {"sent", r.sent},
                {"delivered", r.delivered},
                {"in_order", r.in_order}});
    }
  }
  json.write();
  std::printf(
      "\nshape check: latency is micro- to milli-seconds, independent of\n"
      "chain length (only the splice point pauses; the rest keeps flowing),\n"
      "and removal costs more than insertion (it drains the filter twice —\n"
      "its input pipe, then its flushed output).\n");
  if (!failed.empty()) {
    std::printf("\nFAILED:");
    for (const std::string& row : failed) std::printf(" %s", row.c_str());
    std::printf("\n");
    return 1;
  }
  return 0;
}
