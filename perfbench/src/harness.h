// Harness primitives of the end-to-end benchmark: clocks, the seeded media
// generator, the preallocated latency histogram, span buffers for the traced
// run, and the per-thread allocation counter. Nothing here allocates after
// construction, so it can run on worker threads without showing up in the
// program's own allocation count.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Sleeps until the CLOCK_MONOTONIC instant `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);

// --- Allocation counting ---------------------------------------------------
// Global operator new is replaced (alloc_count.cpp) to count calls made on
// threads that opted in: the two workers for the whole run, the generator
// only inside FlowTable::push. Receiver and harness work is never counted.
extern constinit thread_local bool t_count_allocs;
extern constinit thread_local std::uint64_t t_allocs;

// --- Seeded media ----------------------------------------------------------
// Every packet is a function of (seed, flow, seq): nothing is stored, and any
// thread can regenerate the expected bytes to check a packet it sees.

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t packet_key(std::uint64_t seed, std::uint32_t flow,
                                std::uint32_t seq) {
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(flow) << 32) | seq));
}

enum class Media : std::uint8_t { kAudio, kVideo };

/// media::MediaPacket wire header: u32 seq · i64 timestamp_us · u8 class.
inline constexpr std::size_t kMediaHeader = 13;
/// 20 ms of 8 kHz two-channel 8-bit PCM.
inline constexpr std::size_t kAudioPayload = 320;
inline constexpr std::int64_t kAudioPeriodUs = 20'000;
inline constexpr std::int64_t kVideoPeriodUs = 40'000;  // 25 fps
/// GOP pattern IBBPBBPBB; the class byte is fec::FrameClass (0 I, 1 P, 2 B).
inline constexpr char kGop[] = "IBBPBBPBB";
inline constexpr std::size_t kGopLen = 9;

std::uint8_t video_class(std::uint32_t seq);

/// Total wire size of packet (flow, seq).
std::size_t media_size(Media media, std::uint64_t seed, std::uint32_t flow,
                       std::uint32_t seq);

/// Writes packet (flow, seq) into `out` (resized to media_size()).
void make_media(Media media, std::uint64_t seed, std::uint32_t flow,
                std::uint32_t seq, std::vector<std::uint8_t>& out);

/// Seq from a media header; false when `wire` is too short to hold one.
bool media_seq(std::span<const std::uint8_t> wire, std::uint32_t* seq);

/// True when `wire` is byte-exact packet (flow, seq) of the generator.
bool media_matches(Media media, std::uint64_t seed, std::uint32_t flow,
                   std::uint32_t seq, std::span<const std::uint8_t> wire);

// --- Latency histogram -----------------------------------------------------
/// Log-linear histogram of nanosecond values: 128 linear sub-buckets per
/// power of two (under 1 % relative width). Percentiles interpolate by rank
/// inside the bucket, so they move with the data instead of snapping to
/// bucket edges. Fixed-size; record() never allocates.
class LatencyHist {
 public:
  LatencyHist() { clear(); }

  void clear();
  void record(std::int64_t ns);
  void merge(const LatencyHist& other);

  std::uint64_t count() const { return count_; }
  /// q in [0, 1]; 0 when empty.
  double percentile_ns(double q) const;
  /// Samples strictly above `ns` (bucket-resolution).
  std::uint64_t count_above(double ns) const;

 private:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = kSub * kOctaves;
  static int bucket_of(std::uint64_t v);
  static double bucket_low(int b);
  static double bucket_width(int b);

  std::array<std::uint64_t, kBuckets> buckets_;
  std::uint64_t count_ = 0;
};

// --- Spans (traced run) ----------------------------------------------------
enum class SpanKind : std::uint8_t {
  kPush,       // FlowTable::push (generator)
  kAcquire,    // FlowTable::acquire (setup)
  kSink,       // benchmark egress sink: check + forward (worker)
  kEgress,     // proxy::SocketPacketSink::deliver, child of kSink (worker)
  kDecode,     // fec::GroupDecoder::add at the receiver
  kRuleAdd,    // RULE_ADD round trip through core::ControlManager
  kReresolve,  // FlowTable::reresolve in on_rules_changed, child of kRuleAdd
  kStats,      // STATS scrape through core::ControlManager
  kCount
};

const char* span_name(SpanKind kind);

/// One thread's spans, kept in memory preallocated before the window and
/// written out when the run ends. Spans past the capacity still feed the
/// per-kind aggregates; only their records are not kept.
class SpanBuffer {
 public:
  struct Record {
    std::int64_t start_ns;
    std::uint32_t dur_ns;   // saturates at ~4.29 s
    std::uint32_t parent;   // 1-based index into this buffer, 0 = root
    std::uint32_t packet;   // flow << 20 | (seq & 0xfffff); 0 if none
    std::uint8_t kind;
    std::uint8_t thread;
    std::uint8_t pad[2];
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;  // covered by child spans (self = total - child)
    std::int64_t over_1ms_ns = 0;
    std::uint64_t over_1ms = 0;

    void add(const Totals& o) {
      count += o.count;
      total_ns += o.total_ns;
      child_ns += o.child_ns;
      over_1ms_ns += o.over_1ms_ns;
      over_1ms += o.over_1ms;
    }
  };

  SpanBuffer(std::uint8_t thread, std::size_t capacity);

  /// Opens a span as a child of the innermost open span; returns a token
  /// for close().
  std::uint32_t open(SpanKind kind, std::uint32_t packet, std::int64_t now);
  void close(std::uint32_t token, std::int64_t now);

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<int>(kind)];
  }
  void reset_totals();
  std::span<const Record> records() const { return {records_.data(), size_}; }
  std::uint64_t unstored() const { return unstored_; }

 private:
  struct Open {
    std::int64_t start;
    std::uint32_t record;  // 1-based, 0 when not stored
    SpanKind kind;
  };

  std::uint8_t thread_;
  std::vector<Record> records_;
  std::size_t size_ = 0;
  std::uint64_t unstored_ = 0;
  std::array<Open, 8> stack_{};
  std::uint32_t depth_ = 0;
  std::array<Totals, static_cast<int>(SpanKind::kCount)> totals_{};
};

/// The span buffer of the calling thread; null when the run is untraced.
extern constinit thread_local SpanBuffer* t_spans;

/// RAII span on the calling thread's buffer; a no-op when untraced.
class Span {
 public:
  Span(SpanKind kind, std::uint32_t packet = 0) : buf_(t_spans) {
    if (buf_ != nullptr) token_ = buf_->open(kind, packet, mono_ns());
  }
  ~Span() {
    if (buf_ != nullptr) buf_->close(token_, mono_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer* buf_;
  std::uint32_t token_ = 0;
};

/// Writes every stored span of `buffers` to `path` (layout in README.md).
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers);

/// Share of wall time a bare spin loop loses in gaps over 50 us, and the
/// longest gap, over `seconds` of spinning.
struct StallProbe {
  double lost_share = 0;
  double longest_ms = 0;
};
StallProbe probe_stalls(double seconds);

}  // namespace perfbench
