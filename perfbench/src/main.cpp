// End-to-end benchmark of the per-flow proxy path (see ../README.md).
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//   perfbench_e2e --stall-probe SECONDS
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. A run that breaks the
// correctness oracle exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "rig.h"

namespace perfbench {
namespace {

const Workload kWorkloads[] = {
    {"audio_open", Media::kAudio, 1024, false, false},
    {"video_closed", Media::kVideo, 64, true, false},
    {"audio_reconfig", Media::kAudio, 1024, false, true},
};

// Set-up is timed at least kMinSetups times and for at least kMinSetupNs in
// total per run, and reported as the median.
constexpr int kMinSetups = 15;
constexpr int kMaxSetups = 80;
constexpr std::int64_t kMinSetupNs = 2'000'000'000;
// audio_reconfig's operator, on the receiver thread: a rule swap every
// 150 ms and a STATS scrape every 100 ms. Each swap stalls the data path
// for its whole apply (FlowTable::reresolve holds each shard's lock across
// the splices and FlowTable::push waits on it); at 150 ms the stall sets
// p90 and, on a quiet host, leaves the median unstalled.
constexpr std::int64_t kRulePeriodNs = 150'000'000;
constexpr std::int64_t kStatsPeriodNs = 100'000'000;
// Workloads without an operator time this many bursts of rule changes that
// touch no flow per set-up round, and this many STATS scrapes after their
// window.
constexpr int kProbeSamplesPerSetup = 11;
constexpr int kProbeBurst = 8;
constexpr int kProbeScrapes = 3;
// video_closed pushes a fixed number of frames per run second (204 800 over
// its 64 flows, about what two workers take in a second), so every run at
// one seed carries the same frames and loses the same packets.
constexpr std::uint32_t kVideoFramesPerFlowSecond = 3200;
constexpr std::int64_t kReceiverPauseNs = 500'000;
// Wire packets the receiver may trail egress by before the closed-loop
// generator waits for it (about 13 ms of video_closed's output). The
// receiver's backlog is the part of video_closed's memory that follows the
// host's timing, so it is kept small.
constexpr std::uint64_t kMaxReceiverLag = 4096;
// Frames a closed-loop flow may run ahead of the slowest flow: about 0.8 s
// of WaveLAN airtime, well inside its 2 s transmit buffer, and ~20 ms of
// work per worker, so one worker's hiccup rarely holds the other back.
constexpr std::uint32_t kMaxLeadFrames = 80;
// A latency interval needs this many samples to enter the median.
constexpr std::uint64_t kMinIntervalSamples = 1000;
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 19;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  double stall_probe = 0;
};

// --- Window accounting -------------------------------------------------------

struct Edge {
  std::int64_t wall_ns = 0;
  std::int64_t worker_cpu_ns = 0;
  std::int64_t worker_nvcsw = 0;
  std::uint64_t worker_allocs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t media = 0;
  std::uint64_t wire = 0;
};

struct Window {
  bool traced = false;
  std::uint64_t offered = 0;
  Edge begin, end;
  std::int64_t dispatch_cpu_ns = 0;
  std::uint64_t dispatch_allocs = 0;
  std::vector<LatencyHist> latency = std::vector<LatencyHist>(kIntervals);
  LatencyHist late;  // open loop: how late the generator pushed
  std::vector<double> rule_ms;
  std::vector<double> stats_ms;
  std::vector<Rig::ChangeSample> changes;
  std::uint64_t control_errors = 0;
  std::array<SpanBuffer::Totals, static_cast<int>(SpanKind::kCount)> spans{};

  double wall_s() const {
    return static_cast<double>(end.wall_ns - begin.wall_ns) / 1e9;
  }
  double per_pkt(double v) const {
    return offered == 0 ? 0 : v / static_cast<double>(offered);
  }
  double worker_cpu_ns() const {
    return static_cast<double>(end.worker_cpu_ns - begin.worker_cpu_ns);
  }
  double cpu_ns_per_pkt() const {
    return per_pkt(worker_cpu_ns() + static_cast<double>(dispatch_cpu_ns));
  }
  const SpanBuffer::Totals& span(SpanKind k) const {
    return spans[static_cast<int>(k)];
  }
  LatencyHist latency_total() const {
    LatencyHist all;
    for (const LatencyHist& h : latency) all.merge(h);
    return all;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Lower quartile over the window's one-second intervals of each interval's
/// q-th latency percentile. The host this runs on stalls its guests for
/// milliseconds at a time, sometimes for minutes on end; a stall spoils the
/// seconds it falls in, and the quiet quarter of the run still shows what
/// the proxy itself does.
double interval_quartile(const Window& w, double q) {
  std::vector<double> v;
  for (const LatencyHist& h : w.latency) {
    if (h.count() >= kMinIntervalSamples) v.push_back(h.percentile_ns(q));
  }
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean_ns(const SpanBuffer::Totals& t) {
  return t.count == 0 ? 0
                      : static_cast<double>(t.total_ns) /
                            static_cast<double>(t.count);
}

/// Harness state of the two workers, owned outside the Rig so set-up time
/// never includes the benchmark's own buffers.
using Workers = std::array<WorkerCtx, kWorkers>;

/// Runs `fn` on every worker and waits for it.
template <typename Fn>
void on_workers(Rig& rig, Workers& workers, Fn fn) {
  for (std::size_t i = 0; i < kWorkers; ++i) {
    WorkerCtx* ctx = &workers[i];
    rig.pool().worker(i).post([ctx, fn] { fn(*ctx); });
  }
  for (std::size_t i = 0; i < kWorkers; ++i) rig.pool().worker(i).sync();
}

/// Waits until both workers are idle: a barrier round in which nothing but
/// the barriers ran and no task is queued behind them.
void quiesce(Rig& rig) {
  for (;;) {
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      before += rig.pool().worker(i).tasks_run();
    }
    for (std::size_t i = 0; i < kWorkers; ++i) rig.pool().worker(i).sync();
    std::uint64_t after = 0;
    std::size_t queued = 0;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      after += rig.pool().worker(i).tasks_run();
      queued += rig.pool().worker(i).queue_depth();
    }
    if (after - before <= kWorkers && queued == 0) return;
  }
}

Edge sample_edge(Rig& rig, Workers& workers) {
  on_workers(rig, workers, [](WorkerCtx& ctx) {
    ctx.cpu_ns = thread_cpu_ns();
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    ctx.nvcsw = ru.ru_nvcsw;
    ctx.allocs = t_allocs;
  });
  Edge e;
  e.wall_ns = mono_ns();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const WorkerCtx& ctx = workers[i];
    e.worker_cpu_ns += ctx.cpu_ns;
    e.worker_nvcsw += ctx.nvcsw;
    e.worker_allocs += ctx.allocs;
    e.tasks += rig.pool().worker(i).tasks_run();
    const auto pool = rig.pool().worker(i).pool().stats();
    e.pool_hits += pool.hits;
    e.pool_misses += pool.misses;
  }
  for (std::uint32_t f = 0; f < rig.flows(); ++f) {
    e.media += rig.egress(f).media;
    e.wire += rig.egress(f).wire.load(std::memory_order_relaxed);
  }
  return e;
}

/// Cost of an empty thread-CPU bracket, subtracted from each dispatch
/// bracket so the clock reads are not billed to FlowTable::push.
std::int64_t bracket_cost_ns() {
  std::vector<double> v;
  for (int i = 0; i < 201; ++i) {
    const std::int64_t a = thread_cpu_ns();
    const std::int64_t b = thread_cpu_ns();
    v.push_back(static_cast<double>(b - a));
  }
  return static_cast<std::int64_t>(median(v));
}

// --- Receiver / operator thread ------------------------------------------

class Receiver {
 public:
  explicit Receiver(Rig& rig) : rig_(rig), thread_([this] { run(); }) {}
  ~Receiver() { stop(); }
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  void set_spans(SpanBuffer* spans) {
    spans_.store(spans, std::memory_order_release);
    settle();
  }

  /// Starts audio_reconfig's operator schedule; results go to `w`.
  void start_operating(Window* w, std::int64_t origin) {
    window_ = w;
    next_rule_ = origin + kRulePeriodNs;
    next_stats_ = origin + kStatsPeriodNs;
    operating_.store(true, std::memory_order_release);
  }

  /// Stops the operator and returns once its last call has completed.
  void stop_operating() {
    operating_.store(false, std::memory_order_release);
    settle();
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  // Returns after two full loop iterations, so anything the loop wrote
  // before noticing a flag change is visible to the caller.
  void settle() {
    const std::uint64_t seen = loops_.load(std::memory_order_acquire);
    while (loops_.load(std::memory_order_acquire) < seen + 2) {
      sleep_until_ns(mono_ns() + kReceiverPauseNs);
    }
  }

  void run() {
    while (!stop_.load(std::memory_order_acquire)) {
      t_spans = spans_.load(std::memory_order_acquire);
      rig_.receive_sweep();
      if (operating_.load(std::memory_order_acquire)) operate();
      loops_.fetch_add(1, std::memory_order_release);
      sleep_until_ns(mono_ns() + kReceiverPauseNs);
    }
    t_spans = nullptr;
  }

  void operate() {
    const std::int64_t now = mono_ns();
    if (now >= next_rule_) {
      interleave_ = !interleave_;
      const double ms = rig_.rule_add(rules::degraded(interleave_));
      if (ms < 0) {
        ++window_->control_errors;
      } else {
        window_->rule_ms.push_back(ms);
      }
      next_rule_ += kRulePeriodNs;
    }
    if (now >= next_stats_) {
      const double ms = rig_.scrape_stats();
      if (ms < 0) {
        ++window_->control_errors;
      } else {
        window_->stats_ms.push_back(ms);
      }
      next_stats_ += kStatsPeriodNs;
    }
  }

  Rig& rig_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> operating_{false};
  std::atomic<std::uint64_t> loops_{0};
  std::atomic<SpanBuffer*> spans_{nullptr};
  Window* window_ = nullptr;
  std::int64_t next_rule_ = 0;
  std::int64_t next_stats_ = 0;
  bool interleave_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

// --- Generators ------------------------------------------------------------

/// Open loop: every flow sends 50 packets/s at its own phase; the generator
/// sleeps until the next packet is due and pushes everything due by then.
void generate_open(Rig& rig, const Inputs& in, Window& w, std::uint32_t round0,
                   std::uint32_t rounds, std::int64_t bracket_ns) {
  const std::uint32_t n = rig.flows();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return in.phase_ns[a] < in.phase_ns[b];
  });
  const std::uint64_t first = static_cast<std::uint64_t>(round0) * n;
  const std::uint64_t last = first + static_cast<std::uint64_t>(rounds) * n;
  const auto flow_of = [&](std::uint64_t i) { return order[i % n]; };
  const auto seq_of = [&](std::uint64_t i) {
    return static_cast<std::uint32_t>(i / n);
  };
  const auto due_of = [&](std::uint64_t i) {
    return rig.due_ns(flow_of(i), seq_of(i));
  };

  std::vector<util::Bytes> batch;
  for (std::uint64_t i = first; i < last;) {
    std::int64_t now = mono_ns();
    if (due_of(i) > now) {
      sleep_until_ns(due_of(i));
      now = mono_ns();
    }
    std::uint64_t stop = i;
    while (stop < last && due_of(stop) <= now && stop - i < 512) ++stop;
    batch.resize(stop - i);
    for (std::uint64_t j = i; j < stop; ++j) {
      make_media(Media::kAudio, in.seed, flow_of(j), seq_of(j), batch[j - i]);
      w.late.record(now - due_of(j));
    }
    // The WaveLAN model runs on media time: the newest scheduled instant.
    rig.clock().set(static_cast<std::int64_t>(seq_of(stop - 1)) *
                        kAudioPeriodUs +
                    in.phase_ns[flow_of(stop - 1)] / 1000);
    const std::uint64_t allocs0 = t_allocs;
    const std::int64_t cpu0 = thread_cpu_ns();
    t_count_allocs = true;
    for (std::uint64_t j = i; j < stop; ++j) {
      const std::uint32_t f = flow_of(j);
      Span s(SpanKind::kPush, f << 20 | (seq_of(j) & 0xfffff));
      rig.table().push(in.keys[f], std::move(batch[j - i]));
    }
    t_count_allocs = false;
    w.dispatch_cpu_ns += std::max<std::int64_t>(
        0, thread_cpu_ns() - cpu0 - bracket_ns);
    w.dispatch_allocs += t_allocs - allocs0;
    for (std::uint64_t j = i; j < stop; ++j) ++rig.gen(flow_of(j)).pushed;
    i = stop;
  }
  w.offered = last - first;
}

/// Closed loop: each flow may have kInFlight frames pushed but not yet read
/// by its head; the generator tops every flow up and naps when none can
/// take a frame.
void generate_closed(Rig& rig, const Inputs& in, Window& w,
                     std::uint32_t frames_per_flow, std::int64_t bracket_ns) {
  const std::uint32_t n = rig.flows();
  std::vector<std::uint32_t> target(n);
  for (std::uint32_t f = 0; f < n; ++f) {
    target[f] = rig.gen(f).pushed + frames_per_flow;
  }
  std::vector<std::pair<std::uint32_t, util::Bytes>> staged;
  std::uint64_t remaining = static_cast<std::uint64_t>(frames_per_flow) * n;
  while (remaining > 0) {
    staged.clear();
    // The receiver is harness: while it is far behind, let it catch up so
    // its backlog never becomes the process's memory peak.
    if (rig.receiver_lag() > kMaxReceiverLag) {
      sleep_until_ns(mono_ns() + 100'000);
      continue;
    }
    // The WaveLAN model runs on the media time of the slowest flow, and no
    // flow may run more than kMaxLeadFrames ahead of it: a station's queue
    // then never holds more than that lead, however unevenly the workers
    // progress.
    std::uint32_t slowest = target[0];
    for (std::uint32_t f = 0; f < n; ++f) {
      slowest = std::min(slowest, rig.gen(f).pushed);
    }
    for (std::uint32_t f = 0; f < n; ++f) {
      GenState& g = rig.gen(f);
      const std::uint64_t read = rig.egress(f).head->packets_read();
      const std::uint32_t stop = std::min(target[f], slowest + kMaxLeadFrames);
      for (std::uint32_t seq = g.pushed; seq < stop && seq - read < kInFlight;
           ++seq) {
        staged.emplace_back(f, util::Bytes{});
        make_media(Media::kVideo, in.seed, f, seq, staged.back().second);
      }
    }
    if (!staged.empty()) {
      rig.clock().set(static_cast<std::int64_t>(slowest) * kVideoPeriodUs);
      const std::uint64_t allocs0 = t_allocs;
      const std::int64_t cpu0 = thread_cpu_ns();
      t_count_allocs = true;
      for (auto& [f, frame] : staged) {
        GenState& g = rig.gen(f);
        g.push_ns[g.pushed % kPushRing].store(mono_ns(),
                                              std::memory_order_relaxed);
        {
          Span s(SpanKind::kPush, f << 20 | (g.pushed & 0xfffff));
          rig.table().push(in.keys[f], std::move(frame));
        }
        ++g.pushed;
      }
      t_count_allocs = false;
      w.dispatch_cpu_ns += std::max<std::int64_t>(
          0, thread_cpu_ns() - cpu0 - bracket_ns);
      w.dispatch_allocs += t_allocs - allocs0;
      remaining -= staged.size();
    }
    if (staged.size() < 32) sleep_until_ns(mono_ns() + 100'000);
  }
  w.offered = static_cast<std::uint64_t>(frames_per_flow) * n;
}

// --- One run -----------------------------------------------------------------

struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
};

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

std::int64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

struct RunState {
  RunState(const Workload& workload, const Args& a)
      : w(workload), args(a), inputs(make_inputs(workload, a.seed)) {}

  const Workload& w;
  const Args& args;
  Inputs inputs;
  std::vector<double> setup_s;
  std::vector<double> setup_faults;
  std::array<SpanBuffer::Totals, static_cast<int>(SpanKind::kCount)>
      setup_spans{};
  std::vector<double> probe_rule_ms;
  std::vector<Rig::ChangeSample> probe_changes;
  std::uint64_t probe_errors = 0;
  std::unique_ptr<Workers> workers = std::make_unique<Workers>();
  std::unique_ptr<Rig> rig;
  std::unique_ptr<SpanBuffer> main_spans;
  std::unique_ptr<SpanBuffer> rx_spans;
  std::int64_t bracket_ns = 0;
  std::uint32_t rounds_done = 0;  // open loop: schedule rounds pushed
};

/// Workloads without an operator time RULE_ADDs that re-resolve every live
/// flow and change none. They run on each set-up round's fresh, idle flow
/// table, so the median covers several heap layouts: one layout can make
/// the re-resolve walk a third slower for a whole process. One sample is
/// the mean of a burst of kProbeBurst changes, since a single change of
/// 256 flows lasts only ~60 us.
void probe_rules(RunState& st) {
  Rig& rig = *st.rig;
  rig.change_samples().clear();
  for (int i = 0; i < kProbeSamplesPerSetup; ++i) {
    double sum = 0;
    int ok = 0;
    for (int j = 0; j < kProbeBurst; ++j) {
      const double ms = rig.rule_add(rules::probe(j % 2 == 1));
      if (ms < 0) {
        ++st.probe_errors;
      } else {
        sum += ms;
        ++ok;
      }
    }
    if (ok > 0) st.probe_rule_ms.push_back(sum / ok);
  }
  const auto& changes = rig.change_samples();
  st.probe_changes.insert(st.probe_changes.end(), changes.begin(),
                          changes.end());
}

void setup(RunState& st) {
  if (st.args.trace) {
    st.main_spans = std::make_unique<SpanBuffer>(0, kMaxSpansPerThread);
    t_spans = st.main_spans.get();
  }
  std::int64_t timed_ns = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || timed_ns < kMinSetupNs);
       ++i) {
    st.rig.reset();
    // Hand freed pages back so every set-up pays the same first touches.
    malloc_trim(0);
    const std::int64_t faults0 = minor_faults();
    const std::int64_t t0 = mono_ns();
    st.rig = std::make_unique<Rig>(st.w, st.inputs);
    st.rig->acquire_all();
    timed_ns += mono_ns() - t0;
    st.setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    st.setup_faults.push_back(static_cast<double>(minor_faults() - faults0));
    if (!st.w.reconfig) probe_rules(st);
  }
  if (st.main_spans) {
    for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
      st.setup_spans[k] = st.main_spans->totals(static_cast<SpanKind>(k));
    }
    st.main_spans->reset_totals();
  }
  t_spans = nullptr;
}

Window run_window(RunState& st, Receiver& receiver, bool traced) {
  Rig& rig = *st.rig;
  Window w;
  w.traced = traced;
  if (traced) {
    on_workers(rig, *st.workers,
               [](WorkerCtx& ctx) { t_spans = ctx.spans.get(); });
    t_spans = st.main_spans.get();
    receiver.set_spans(st.rx_spans.get());
  }
  quiesce(rig);
  on_workers(rig, *st.workers, [](WorkerCtx& ctx) {
    for (LatencyHist& h : ctx.latency) h.clear();
  });
  rig.change_samples().clear();
  const std::int64_t lead_ns = 10'000'000;
  if (!st.w.closed_loop) {
    rig.set_t0(mono_ns() + lead_ns -
               static_cast<std::int64_t>(st.rounds_done) * kAudioPeriodUs *
                   1000);
  }
  rig.set_measuring(true);
  rig.set_window_start(mono_ns());
  w.begin = sample_edge(rig, *st.workers);
  if (st.w.reconfig) receiver.start_operating(&w, w.begin.wall_ns + lead_ns);
  // A traced run measures an untraced and a traced window of half the
  // length each, so both kinds of run take the same time.
  const int seconds = st.args.trace ? std::max(1, st.args.seconds / 2)
                                    : st.args.seconds;
  const auto rounds =
      static_cast<std::uint32_t>(seconds * (1'000'000 / kAudioPeriodUs));
  if (st.w.closed_loop) {
    generate_closed(rig, st.inputs, w,
                    static_cast<std::uint32_t>(seconds) *
                        kVideoFramesPerFlowSecond,
                    st.bracket_ns);
  } else {
    generate_open(rig, st.inputs, w, st.rounds_done, rounds, st.bracket_ns);
    st.rounds_done += rounds;
  }
  if (st.w.reconfig) receiver.stop_operating();
  quiesce(rig);
  w.end = sample_edge(rig, *st.workers);
  rig.set_measuring(false);
  w.changes = rig.change_samples();
  // sample_edge() synced both workers after their last record.
  for (const WorkerCtx& ctx : *st.workers) {
    for (std::size_t i = 0; i < kIntervals; ++i) {
      w.latency[i].merge(ctx.latency[i]);
    }
  }
  if (traced) {
    on_workers(rig, *st.workers, [](WorkerCtx&) { t_spans = nullptr; });
    t_spans = nullptr;
    receiver.set_spans(nullptr);
    std::vector<const SpanBuffer*> bufs{st.main_spans.get(),
                                        st.rx_spans.get()};
    for (auto& ctx : *st.workers) bufs.push_back(ctx.spans.get());
    for (const SpanBuffer* b : bufs) {
      for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
        w.spans[k].add(b->totals(static_cast<SpanKind>(k)));
      }
    }
  }
  return w;
}

/// Workloads without an operator scrape STATS a few times after the window.
void scrape_after_window(RunState& st, Window& w) {
  if (w.traced) t_spans = st.main_spans.get();
  for (int i = 0; i < kProbeScrapes; ++i) {
    const double ms = st.rig->scrape_stats();
    if (ms < 0) {
      ++w.control_errors;
    } else {
      w.stats_ms.push_back(ms);
    }
  }
  if (w.traced) {
    w.spans[static_cast<int>(SpanKind::kStats)].add(
        st.main_spans->totals(SpanKind::kStats));
    t_spans = nullptr;
  }
}

void add(RunResult& r, const std::string& name, double v,
         const std::string& unit) {
  r.metrics[name] = {v, unit};
}

void end_to_end_metrics(RunResult& r, const RunState& st, const Window& w,
                        double delivered_ratio) {
  add(r, "setup_s", median(st.setup_s), "s");
  add(r, "latency_p50_us", interval_quartile(w, 0.50) / 1e3, "us");
  add(r, "cpu_ns_per_pkt", w.cpu_ns_per_pkt(), "ns");
  add(r, "throughput_pps",
      static_cast<double>(w.end.media - w.begin.media) / w.wall_s(), "1/s");
  add(r, "delivered_ratio", delivered_ratio, "ratio");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  add(r, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
}

struct Receipt {
  std::uint64_t loss_drops = 0;
  std::uint64_t queue_drops = 0;
  fec::DecoderStats decoder;
  std::uint64_t parity_rx = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bad_rebuilt = 0;
  Rig::Loss lost;
};

void per_layer_metrics(RunResult& r, const RunState& st, const Window& w,
                       const Window& untraced, const Receipt& rc) {
  const double media = static_cast<double>(w.end.media - w.begin.media);
  const double wire = static_cast<double>(w.end.wire - w.begin.wire);
  const auto& push = w.span(SpanKind::kPush);
  const std::uint64_t quick_pushes = push.count - push.over_1ms;
  const double push_ns =
      quick_pushes == 0 ? 0
                        : static_cast<double>(push.total_ns - push.over_1ms_ns) /
                              static_cast<double>(quick_pushes);
  // Rule changes: the operator's in the window, else the set-up probes.
  const auto& change_samples = st.w.reconfig ? w.changes : st.probe_changes;
  double reresolve_ms = 0;
  double reconfigured = 0;
  for (const auto& c : change_samples) {
    reresolve_ms += c.reresolve_ms;
    reconfigured += static_cast<double>(c.reconfigured);
  }
  const double changes = static_cast<double>(change_samples.size());
  const auto& rule =
      st.w.reconfig ? w.span(SpanKind::kRuleAdd)
                    : st.setup_spans[static_cast<int>(SpanKind::kRuleAdd)];
  const double wire_per_media = media == 0 ? 0 : wire / media;
  const double egress_ns = mean_ns(w.span(SpanKind::kEgress));
  const double egress_per_media = egress_ns * wire_per_media;
  const double worker_cpu = w.per_pkt(w.worker_cpu_ns());
  const double pool_total =
      static_cast<double>((w.end.pool_hits - w.begin.pool_hits) +
                          (w.end.pool_misses - w.begin.pool_misses));
  const LatencyHist latency = w.latency_total();
  const double p90 = latency.percentile_ns(0.90);
  const double p99 = latency.percentile_ns(0.99);
  const double p999 = latency.percentile_ns(0.999);
  const auto& sink = w.span(SpanKind::kSink);

  add(r, "proxy.push_ns", push_ns, "ns");
  add(r, "proxy.push_stall_ms", static_cast<double>(push.over_1ms_ns) / 1e6,
      "ms");
  add(r, "proxy.acquire_us",
      mean_ns(st.setup_spans[static_cast<int>(SpanKind::kAcquire)]) / 1e3,
      "us");
  add(r, "proxy.reresolve_ms", changes == 0 ? 0 : reresolve_ms / changes, "ms");
  add(r, "proxy.reconfigured_per_change",
      changes == 0 ? 0 : reconfigured / changes, "count");
  add(r, "core.worker_cpu_ns_per_pkt", worker_cpu, "ns");
  add(r, "core.tasks_per_pkt",
      w.per_pkt(static_cast<double>(w.end.tasks - w.begin.tasks)), "count");
  add(r, "core.ctx_switches_per_pkt",
      w.per_pkt(static_cast<double>(w.end.worker_nvcsw - w.begin.worker_nvcsw)),
      "count");
  add(r, "core.splice_us",
      reconfigured == 0 ? 0 : reresolve_ms * 1e3 / reconfigured, "us");
  add(r, "core.rule_apply_ms",
      median(st.w.reconfig ? w.rule_ms : st.probe_rule_ms), "ms");
  add(r, "core.control_ms",
      rule.count == 0 ? 0
                      : static_cast<double>(rule.total_ns - rule.child_ns) /
                            static_cast<double>(rule.count) / 1e6,
      "ms");
  add(r, "core.setup_page_faults", median(st.setup_faults), "count");
  add(r, "net.egress_ns_per_pkt", egress_ns, "ns");
  add(r, "net.wire_per_media_pkt", wire_per_media, "ratio");
  add(r, "wireless.loss_drops", static_cast<double>(rc.loss_drops), "count");
  add(r, "wireless.queue_drops", static_cast<double>(rc.queue_drops), "count");
  add(r, "fec.decode_ns_per_pkt", mean_ns(w.span(SpanKind::kDecode)), "ns");
  add(r, "fec.recovered", static_cast<double>(rc.decoder.data_recovered),
      "count");
  add(r, "fec.unrecoverable", static_cast<double>(rc.decoder.data_lost),
      "count");
  add(r, "fec.restarts", static_cast<double>(rc.decoder.restarts), "count");
  add(r, "fec.rejected", static_cast<double>(rc.rejected), "count");
  add(r, "fec.bad_rebuilt", static_cast<double>(rc.bad_rebuilt), "count");
  add(r, "fec.resync_lost", static_cast<double>(rc.lost.decoder), "count");
  add(r, "wireless.media_lost", static_cast<double>(rc.lost.channel), "count");
  add(r, "fec.parity_useful_ratio",
      rc.parity_rx == 0 ? 0
                        : static_cast<double>(rc.decoder.data_recovered) /
                              static_cast<double>(rc.parity_rx),
      "ratio");
  add(r, "util.allocs_per_pkt",
      w.per_pkt(static_cast<double>(w.end.worker_allocs -
                                    w.begin.worker_allocs + w.dispatch_allocs)),
      "count");
  add(r, "util.pool_hit_rate",
      pool_total == 0 ? 0
                      : static_cast<double>(w.end.pool_hits - w.begin.pool_hits) /
                            pool_total,
      "ratio");
  add(r, "obs.stats_ms", median(w.stats_ms), "ms");
  add(r, "gen.late_p99_us", w.late.percentile_ns(0.99) / 1e3, "us");
  add(r, "tail.latency_p90_us", p90 / 1e3, "us");
  add(r, "tail.latency_p99_us", p99 / 1e3, "us");
  add(r, "tail.latency_p999_us", p999 / 1e3, "us");
  add(r, "tail.beyond_p99", static_cast<double>(latency.count_above(p99)),
      "count");
  add(r, "tail.beyond_p999", static_cast<double>(latency.count_above(p999)),
      "count");
  add(r, "bench.sink_self_ns_per_pkt",
      sink.count == 0 ? 0
                      : static_cast<double>(sink.total_ns - sink.child_ns) /
                            static_cast<double>(sink.count),
      "ns");

  // The per-packet ledger: dispatch + chain + egress, against the traced
  // window's own cpu_ns_per_pkt.
  const double chain = worker_cpu - egress_per_media;
  const double sum = push_ns + chain + egress_per_media;
  const double cpu = w.cpu_ns_per_pkt();
  add(r, "ledger.sum_ns_per_pkt", sum, "ns");
  add(r, "ledger.cpu_ns_per_pkt", cpu, "ns");
  add(r, "trace.overhead_ratio",
      untraced.cpu_ns_per_pkt() == 0 ? 0
                                     : cpu / untraced.cpu_ns_per_pkt() - 1,
      "ratio");
  std::printf("ledger (ns per media packet, traced window of %llu packets)\n",
              static_cast<unsigned long long>(w.offered));
  std::printf("  dispatch  proxy.push_ns                        %10.1f\n",
              push_ns);
  std::printf("  chain     worker cpu - egress                  %10.1f\n",
              chain);
  std::printf("  egress    net.egress_ns_per_pkt x wire/media   %10.1f\n",
              egress_per_media);
  std::printf("  sum                                            %10.1f\n", sum);
  std::printf("  cpu_ns_per_pkt                                 %10.1f  "
              "(sum/cpu %.3f, %s)\n",
              cpu, cpu == 0 ? 0 : sum / cpu,
              cpu != 0 && std::abs(sum / cpu - 1) <= 0.10 ? "within 10 %"
                                                          : "NOT within 10 %");
  std::printf("tracing overhead: cpu_ns_per_pkt untraced %.1f, traced %.1f "
              "(%+.1f %%)\n",
              untraced.cpu_ns_per_pkt(), cpu,
              untraced.cpu_ns_per_pkt() == 0
                  ? 0
                  : (cpu / untraced.cpu_ns_per_pkt() - 1) * 100);
}

RunResult run(const Workload& w, const Args& args) {
  RunState st(w, args);
  setup(st);
  Rig& rig = *st.rig;
  st.bracket_ns = bracket_cost_ns();
  if (args.trace) {
    st.rx_spans = std::make_unique<SpanBuffer>(1, kMaxSpansPerThread);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      (*st.workers)[i].spans = std::make_unique<SpanBuffer>(
          static_cast<std::uint8_t>(2 + i), kMaxSpansPerThread);
    }
  }
  on_workers(rig, *st.workers, [](WorkerCtx& ctx) {
    t_worker = &ctx;
    t_count_allocs = true;
  });

  RunResult r;
  std::vector<Window> windows;
  int threads = 0;
  {
    Receiver receiver(rig);
    windows.push_back(run_window(st, receiver, false));
    if (args.trace) windows.push_back(run_window(st, receiver, true));
    threads = thread_count();
    if (!w.reconfig) scrape_after_window(st, windows.back());
    // End every flow gracefully so encoders flush what they still hold.
    for (const core::FlowKey& key : st.inputs.keys) rig.table().expire(key);
    quiesce(rig);
  }
  rig.receive_final();

  // --- Correctness oracle -------------------------------------------------
  std::uint64_t offered = 0;
  std::uint64_t missing = 0;
  std::uint64_t rebuilt = 0;
  std::uint64_t egress_bad = 0;
  std::uint64_t rx_bad = 0;
  Receipt rc;
  for (std::uint32_t f = 0; f < rig.flows(); ++f) {
    const EgressState& eg = rig.egress(f);
    const RxState& rx = rig.rx(f);
    offered += rig.gen(f).pushed;
    // Every pushed packet reached egress once: the exactly-once window
    // closed over all of them.
    if (eg.next < rig.gen(f).pushed) missing += rig.gen(f).pushed - eg.next;
    if (eg.next > rig.gen(f).pushed) egress_bad += eg.next - rig.gen(f).pushed;
    egress_bad += eg.bad;
    rx_bad += rx.bad;
    rebuilt += rx.ok;
    const fec::DecoderStats& d = rx.decoder->stats();
    rc.decoder.data_recovered += d.data_recovered;
    rc.decoder.data_lost += d.data_lost;
    rc.decoder.restarts += d.restarts;
    rc.parity_rx += rx.parity;
    rc.rejected += rx.rejected;
    rc.bad_rebuilt += rx.bad;
    const Rig::Loss lost = rig.loss(f);
    rc.lost.channel += lost.channel;
    rc.lost.decoder += lost.decoder;
  }
  const net::ChannelStats ch = rig.channel_totals();
  rc.loss_drops = ch.dropped_loss;
  rc.queue_drops = ch.dropped_queue;
  std::uint64_t control_ops =
      st.probe_rule_ms.size() * kProbeBurst + st.probe_errors;
  std::uint64_t control_errors = st.probe_errors;
  for (const Window& win : windows) {
    control_ops += win.rule_ms.size() + win.stats_ms.size() +
                   win.control_errors;
    control_errors += win.control_errors;
  }
  // Splices restart the encoder's group ids, and GroupDecoder can merge a
  // new group into one still pending from the old encoder; with equal (n, k)
  // it then rebuilds garbage. That is a receiver-side decoder defect, not a
  // proxy failure: on the reconfiguring workload such packets are counted
  // (fec.bad_rebuilt) and left out of delivered_ratio instead of failing
  // the run. Everywhere else a bad rebuild fails the run.
  r.attempted = offered + control_ops;
  r.failed = missing + egress_bad + (w.reconfig ? 0 : rx_bad) + control_errors;
  const auto problem = [&r](const std::string& what) {
    r.correct = false;
    r.problems.push_back(what);
  };
  if (r.failed > 0) {
    problem("failed operations: " + std::to_string(missing) +
            " media packets never reached egress, " +
            std::to_string(egress_bad) +
            " reached it out of order, twice or corrupt, " +
            std::to_string(w.reconfig ? 0 : rx_bad) +
            " were rebuilt corrupt or twice, " +
            std::to_string(control_errors) + " control errors");
  }
  if (rc.queue_drops > 0) {
    problem("the WaveLAN model tail-dropped " +
            std::to_string(rc.queue_drops) +
            " packets: the harness, not the program, overloaded a station");
  }
  if (threads > 4) {
    problem("the process ran " + std::to_string(threads) +
            " threads; the benchmark allows 4");
  }
  if (rig.offloop_deliveries() > 0) {
    problem(std::to_string(rig.offloop_deliveries()) +
            " egress deliveries ran off the worker threads");
  }
  const double delivered =
      offered == 0 ? 0
                   : static_cast<double>(rebuilt) / static_cast<double>(offered);
  std::printf("workload %s seed %llu: %llu media packets offered, %llu "
              "rebuilt byte-exact at the receivers (%.4f); missing: %llu lost "
              "on the channel, %llu dropped by the decoder's group-id resync "
              "(channel dropped %llu wire packets; decoder recovered %llu, "
              "%llu in unrecoverable groups)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(rebuilt), delivered,
              static_cast<unsigned long long>(rc.lost.channel),
              static_cast<unsigned long long>(rc.lost.decoder),
              static_cast<unsigned long long>(rc.loss_drops),
              static_cast<unsigned long long>(rc.decoder.data_recovered),
              static_cast<unsigned long long>(rc.decoder.data_lost));
  if (rc.bad_rebuilt > 0 || rc.rejected > 0) {
    std::printf("receiver decoder: %llu packets rebuilt corrupt or twice, "
                "%llu wire packets rejected (group-id collisions after "
                "splices)\n",
                static_cast<unsigned long long>(rc.bad_rebuilt),
                static_cast<unsigned long long>(rc.rejected));
  }
  if (args.trace) {
    per_layer_metrics(r, st, windows.back(), windows.front(), rc);
    if (!args.trace_out.empty()) {
      std::vector<const SpanBuffer*> bufs{st.main_spans.get(),
                                          st.rx_spans.get()};
      for (auto& ctx : *st.workers) bufs.push_back(ctx.spans.get());
      std::uint64_t unstored = 0;
      for (const SpanBuffer* b : bufs) unstored += b->unstored();
      if (write_spans(args.trace_out, bufs)) {
        std::printf("spans written to %s (%llu past the in-memory "
                    "capacity were aggregated only)\n",
                    args.trace_out.c_str(),
                    static_cast<unsigned long long>(unstored));
      } else {
        std::fprintf(stderr, "could not write spans to %s\n",
                     args.trace_out.c_str());
      }
    }
  } else {
    end_to_end_metrics(r, st, windows.front(), delivered);
  }
  st.rig.reset();
  return r;
}

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, res.ptr};
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stoi(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--stall-probe") {
      a.stall_probe = std::stod(v);
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.seconds < 1 || a.seconds > 60) {
    throw std::invalid_argument("--seconds must be 1..60");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.stall_probe > 0) {
      const StallProbe p = probe_stalls(args.stall_probe);
      std::printf("stall probe: %.3f %% of wall time lost in gaps over 50 us, "
                  "longest gap %.3f ms\n",
                  p.lost_share * 100, p.longest_ms);
      return 0;
    }
    for (const Workload& w : kWorkloads) {
      if (w.name != args.workload) continue;
      RunResult r = run(w, args);
      for (const std::string& p : r.problems) {
        std::fprintf(stderr, "INVALID RUN: %s\n", p.c_str());
      }
      // A run that breaks the oracle reports no numbers.
      if (!r.correct) r.metrics.clear();
      print_result(r);
      return r.correct ? 0 : 1;
    }
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
