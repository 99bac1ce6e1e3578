#include "testing/stress.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "testing/sequence_stream.h"
#include "util/rng.h"

namespace rapidware::testing {

namespace {

/// Byte pass-through filter with a small, configurable input ring and
/// injected scheduling noise in its processing loop. Its chunks follow the
/// ring, not the frames, so it splits frames at arbitrary byte offsets.
class StressFilter final : public core::ByteFilter {
 public:
  StressFilter(std::string name, std::size_t capacity,
               std::shared_ptr<FaultInjector> faults)
      : ByteFilter(std::move(name), capacity), faults_(std::move(faults)) {}

 protected:
  util::Bytes process(util::Bytes in) override {
    faults_->maybe_delay();
    return in;
  }

 private:
  std::shared_ptr<FaultInjector> faults_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Bare-pipe stress

PipeStressResult run_pipe_schedule(std::uint64_t seed,
                                   const PipeStressOptions& opts) {
  PipeStressResult res;
  res.seed = seed;

  core::DetachableInputStream dis(opts.ring_capacity);
  core::DetachableOutputStream dos;
  dos.connect(dis);

  auto writer_faults = std::make_shared<FaultInjector>(seed ^ 0x17ULL, opts.faults);
  auto reader_faults = std::make_shared<FaultInjector>(seed ^ 0x2eULL, opts.faults);
  auto control_faults = std::make_shared<FaultInjector>(seed ^ 0x3cULL, opts.faults);

  std::atomic<bool> writer_done{false};
  std::string writer_error;
  std::string reader_error;
  SequenceChecker checker(seed);

  // Writer and reader poll the way a drive does; where a drive would
  // return would-block and wait for its watcher, they yield and poll again.
  std::thread writer([&] {
    try {
      util::Rng rng(seed ^ 0xabcdULL);
      util::Bytes chunk(1024);
      std::uint64_t sent = 0;
      while (sent < opts.total_bytes) {
        const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
            rng.next_below(chunk.size()) + 1, opts.total_bytes - sent));
        fill_pattern(seed, sent, util::MutableByteSpan(chunk.data(), n));
        writer_faults->maybe_delay();
        // A chunk may split across a splice; the byte order holds.
        for (std::size_t off = 0; off < n;) {
          const std::size_t w =
              dos.try_write_some(util::ByteSpan(chunk.data() + off, n - off));
          if (w == 0) std::this_thread::yield();
          off += w;
        }
        sent += n;
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::thread reader([&] {
    try {
      util::Rng rng(seed ^ 0xd15cULL);
      for (;;) {
        const std::size_t want =
            static_cast<std::size_t>(rng.next_below(1024) + 1);
        reader_faults->maybe_delay();
        bool end = false;
        const std::size_t n = dis.poll_read_borrow(
            want,
            [&](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
              checker.write(a);
              checker.write(b);
              return a.size() + b.size();
            },
            &end);
        if (end) break;
        if (n == 0) std::this_thread::yield();
      }
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
  });

  // Control thread: pause/reconnect the live pipe while data flows.
  for (int i = 0; i < opts.pause_cycles; ++i) {
    if (writer_done.load(std::memory_order_acquire)) break;
    control_faults->maybe_delay();
    dos.pause();
    ++res.pauses_executed;
    control_faults->maybe_delay();
    dos.reconnect(dis);
  }

  writer.join();
  dos.close();  // hard EOF: reader drains, then exits
  reader.join();

  res.bytes_delivered = checker.received();
  if (!writer_error.empty()) {
    res.error = "writer: " + writer_error;
  } else if (!reader_error.empty()) {
    res.error = "reader: " + reader_error;
  } else if (!checker.clean()) {
    res.error = checker.report();
  } else if (checker.received() != opts.total_bytes) {
    std::ostringstream os;
    os << "byte count mismatch: sent " << opts.total_bytes << ", delivered "
       << checker.received();
    res.error = os.str();
  }
  res.ok = res.error.empty();
  return res;
}

// ---------------------------------------------------------------------------
// Chain stress

std::string ScheduleResult::describe() const {
  std::ostringstream os;
  os << "schedule seed=0x" << std::hex << schedule_seed << std::dec << " [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i) os << ", ";
    os << ops[i];
  }
  os << "] bytes=" << bytes_delivered;
  if (!ok) os << " FAILED: " << error;
  return os.str();
}

std::string StressSummary::describe() const {
  std::ostringstream os;
  os << schedules_run << " schedules, " << control_ops << " control ops ("
     << ops_in_flight << " in flight), " << bytes_total << " bytes, "
     << faults_fired << " faults fired, " << failures << " failures";
  for (const auto& f : failed) os << "\n  " << f.describe();
  return os.str();
}

StressDriver::StressDriver(StressOptions opts) : opts_(opts) {}

ScheduleResult StressDriver::run_schedule(std::uint64_t schedule_seed) {
  ScheduleResult res;
  res.schedule_seed = schedule_seed;

  util::Rng ctl(schedule_seed);
  std::vector<std::shared_ptr<FaultInjector>> injectors;
  auto make_injector = [&](std::uint64_t salt) {
    injectors.push_back(
        std::make_shared<FaultInjector>(schedule_seed ^ salt, opts_.faults));
    return injectors.back();
  };

  auto source = std::make_shared<SequencePacketSource>(
      schedule_seed, opts_.bytes_per_schedule, make_injector(0xa11ceULL));
  auto sink = std::make_shared<SequencePacketSink>(schedule_seed,
                                                   make_injector(0xb0bULL));
  const SequenceChecker& checker = sink->checker();

  auto head = std::make_shared<core::PacketReaderEndpoint>("head", source);
  auto tail = std::make_shared<core::PacketWriterEndpoint>(
      "tail", sink, opts_.ring_capacity);
  core::FilterChain chain(head, tail);
  if (opts_.metrics != nullptr) {
    chain.bind_metrics(*opts_.metrics, opts_.metrics_scope);
  }
  if (opts_.pool != nullptr) chain.host_on(opts_.pool->next());
  chain.start();

  auto control_faults = make_injector(0xc0deULL);
  std::vector<std::shared_ptr<core::Filter>> pool;  // idle, reusable filters
  int created = 0;

  auto record = [&](std::string op) { res.ops.push_back(std::move(op)); };

  try {
    for (int op = 0; op < opts_.ops_per_schedule; ++op) {
      control_faults->maybe_delay();
      // Pacing gap between ops. The draw happens in both modes so the op
      // schedule is a pure function of the seed; the default mode yields
      // instead of sleeping.
      const std::int64_t pace_us = ctl.next_range(0, 200);
      if (opts_.wall_pacing) {
        std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
      } else {
        std::this_thread::yield();
      }
      const std::size_t size = chain.size();
      switch (ctl.next_below(5)) {
        case 0: {  // insert (reusing an idle filter when one exists)
          if (size >= opts_.max_filters) {
            record("skip-insert");
            break;
          }
          std::shared_ptr<core::Filter> f;
          if (!pool.empty()) {
            f = pool.back();
            pool.pop_back();
          } else {
            const std::size_t cap = std::size_t{256}
                                    << ctl.next_below(3);  // 256/512/1024
            f = std::make_shared<StressFilter>(
                "sf" + std::to_string(created),
                cap, make_injector(0xf117e4ULL + std::uint64_t(created)));
            ++created;
          }
          const std::size_t pos = ctl.next_below(size + 1);
          chain.insert(f, pos);
          record("insert@" + std::to_string(pos));
          break;
        }
        case 1: {  // remove
          if (size == 0) {
            record("skip-remove");
            break;
          }
          const std::size_t pos = ctl.next_below(size);
          pool.push_back(chain.remove(pos));
          record("remove@" + std::to_string(pos));
          break;
        }
        case 2: {  // reorder
          if (size < 2) {
            record("skip-reorder");
            break;
          }
          const std::size_t from = ctl.next_below(size);
          const std::size_t to = ctl.next_below(size);
          chain.reorder(from, to);
          record("reorder " + std::to_string(from) + "->" + std::to_string(to));
          break;
        }
        case 3: {  // pause + reconnect the head splice, content untouched
          chain.head().dos().pause();
          control_faults->maybe_delay();
          auto& first =
              chain.size() > 0 ? chain.at(0)->dis() : chain.tail().dis();
          chain.head().dos().reconnect(first);
          record("splice");
          break;
        }
        default: {  // set_param (StressFilter ignores it; exercises the path)
          if (size == 0) {
            record("skip-param");
            break;
          }
          const std::size_t pos = ctl.next_below(size);
          chain.set_param(pos, "noise", "1");
          record("param@" + std::to_string(pos));
          break;
        }
      }
      if (checker.received() < opts_.bytes_per_schedule) ++res.ops_in_flight;
    }
    chain.head().join();  // the source ends on its own after its last byte
    chain.shutdown();
  } catch (const std::exception& e) {
    res.error = std::string("control: ") + e.what();
    res.ok = false;
    res.bytes_delivered = checker.received();
    return res;
  }

  res.bytes_delivered = checker.received();
  for (const auto& inj : injectors) {
    res.faults_fired += inj->delays() + inj->throws();
  }
  if (!checker.clean()) {
    res.error = checker.report();
  } else if (checker.received() != opts_.bytes_per_schedule) {
    std::ostringstream os;
    os << "byte count mismatch: sent " << opts_.bytes_per_schedule
       << ", delivered " << checker.received();
    res.error = os.str();
  }
  res.ok = res.error.empty();
  return res;
}

StressSummary StressDriver::run_all() {
  StressSummary summary;
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::uint64_t> current_seed{0};
  std::atomic<bool> done{false};

  // A wedged schedule would otherwise surface as an opaque CI timeout; the
  // watchdog names the seed so the deadlock can be replayed locally.
  std::thread watchdog([&] {
    using clock = std::chrono::steady_clock;
    std::uint64_t last = heartbeat.load();
    auto last_change = clock::now();
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::uint64_t beat = heartbeat.load(std::memory_order_acquire);
      if (beat != last) {
        last = beat;
        last_change = clock::now();
        continue;
      }
      const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
                               clock::now() - last_change)
                               .count();
      if (stalled > opts_.stall_timeout_ms) {
        std::fprintf(stderr,
                     "STRESS STALL: schedule seed=0x%llx made no progress for "
                     "%lld ms; aborting so the deadlock is visible\n",
                     static_cast<unsigned long long>(current_seed.load()),
                     static_cast<long long>(stalled));
        std::fflush(stderr);
        std::abort();
      }
    }
  });

  util::Rng seeds(opts_.seed);
  for (int i = 0; i < opts_.schedules; ++i) {
    const std::uint64_t s = seeds.next_u64();
    current_seed.store(s, std::memory_order_release);
    heartbeat.fetch_add(1, std::memory_order_acq_rel);
    ScheduleResult r = run_schedule(s);
    ++summary.schedules_run;
    summary.bytes_total += r.bytes_delivered;
    summary.control_ops += r.ops.size();
    summary.ops_in_flight += r.ops_in_flight;
    summary.faults_fired += r.faults_fired;
    if (!r.ok) {
      ++summary.failures;
      if (summary.failed.size() < 8) summary.failed.push_back(std::move(r));
    }
  }
  done.store(true, std::memory_order_release);
  watchdog.join();
  return summary;
}

}  // namespace rapidware::testing
