#include "harness.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>

namespace perfbench {

constinit thread_local SpanBuffer* t_spans = nullptr;

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// --- Seeded media ----------------------------------------------------------

namespace {

std::size_t video_payload(std::uint64_t key, std::uint8_t cls) {
  // media::VideoFormat's nominal frame sizes with its +-25 % jitter.
  static constexpr double kNominal[] = {6000, 2000, 700};
  const double u =
      static_cast<double>(key >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return static_cast<std::size_t>(kNominal[cls] * (1.0 + 0.25 * (2 * u - 1)));
}

// Payload word stream of one packet: an LCG seeded by the packet key, one
// 64-bit word per 8 payload bytes.
struct Words {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s ^ (s >> 29);
  }
};

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void write_header(Media media, std::uint32_t seq, std::uint8_t* out) {
  const bool audio = media == Media::kAudio;
  put_u32(out, seq);
  put_u64(out + 4, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(seq) *
                       (audio ? kAudioPeriodUs : kVideoPeriodUs)));
  out[12] = audio ? 3 /* fec::FrameClass::kAudio */ : video_class(seq);
}

}  // namespace

std::uint8_t video_class(std::uint32_t seq) {
  switch (kGop[seq % kGopLen]) {
    case 'I':
      return 0;
    case 'P':
      return 1;
    default:
      return 2;
  }
}

std::size_t media_size(Media media, std::uint64_t seed, std::uint32_t flow,
                       std::uint32_t seq) {
  if (media == Media::kAudio) return kMediaHeader + kAudioPayload;
  return kMediaHeader +
         video_payload(packet_key(seed, flow, seq), video_class(seq));
}

void make_media(Media media, std::uint64_t seed, std::uint32_t flow,
                std::uint32_t seq, std::vector<std::uint8_t>& out) {
  const std::size_t size = media_size(media, seed, flow, seq);
  out.resize(size);
  write_header(media, seq, out.data());
  Words w{packet_key(seed, flow, seq)};
  std::size_t i = kMediaHeader;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t v = w.next();
    std::memcpy(out.data() + i, &v, 8);
  }
  if (i < size) {
    const std::uint64_t v = w.next();
    std::memcpy(out.data() + i, &v, size - i);
  }
}

bool media_seq(std::span<const std::uint8_t> wire, std::uint32_t* seq) {
  if (wire.size() < kMediaHeader) return false;
  *seq = static_cast<std::uint32_t>(wire[0]) |
         static_cast<std::uint32_t>(wire[1]) << 8 |
         static_cast<std::uint32_t>(wire[2]) << 16 |
         static_cast<std::uint32_t>(wire[3]) << 24;
  return true;
}

bool media_matches(Media media, std::uint64_t seed, std::uint32_t flow,
                   std::uint32_t seq, std::span<const std::uint8_t> wire) {
  const std::size_t size = media_size(media, seed, flow, seq);
  if (wire.size() != size) return false;
  std::uint8_t header[kMediaHeader];
  write_header(media, seq, header);
  if (std::memcmp(header, wire.data(), kMediaHeader) != 0) return false;
  Words w{packet_key(seed, flow, seq)};
  std::size_t i = kMediaHeader;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t v = w.next();
    if (std::memcmp(wire.data() + i, &v, 8) != 0) return false;
  }
  if (i < size) {
    const std::uint64_t v = w.next();
    if (std::memcmp(wire.data() + i, &v, size - i) != 0) return false;
  }
  return true;
}

// --- Latency histogram -----------------------------------------------------

void LatencyHist::clear() {
  buckets_.fill(0);
  count_ = 0;
}

int LatencyHist::bucket_of(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 7
  const int shift = msb - 7;                 // log2(kSub) == 7
  const int octave = shift + 1;
  const int sub = static_cast<int>((v >> shift) - kSub);
  return std::min(octave * kSub + sub, kBuckets - 1);
}

double LatencyHist::bucket_low(int b) {
  if (b < kSub) return b;
  const int octave = b / kSub;
  const int sub = b % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), octave - 1);
}

double LatencyHist::bucket_width(int b) {
  if (b < kSub) return 1;
  return std::ldexp(1.0, b / kSub - 1);
}

void LatencyHist::record(std::int64_t ns) {
  ++buckets_[static_cast<std::size_t>(
      bucket_of(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0))))];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHist::percentile_ns(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n == 0) continue;
    if (seen + n > rank) {
      return bucket_low(b) + bucket_width(b) * ((rank - seen) + 0.5) / n;
    }
    seen += n;
  }
  return bucket_low(kBuckets - 1);
}

std::uint64_t LatencyHist::count_above(double ns) const {
  std::uint64_t above = 0;
  for (int b = kBuckets - 1; b >= 0 && bucket_low(b) > ns; --b) {
    above += buckets_[b];
  }
  return above;
}

// --- Spans -----------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPush:
      return "push";
    case SpanKind::kAcquire:
      return "acquire";
    case SpanKind::kSink:
      return "sink";
    case SpanKind::kEgress:
      return "egress";
    case SpanKind::kDecode:
      return "decode";
    case SpanKind::kRuleAdd:
      return "rule_add";
    case SpanKind::kReresolve:
      return "reresolve";
    case SpanKind::kStats:
      return "stats";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

SpanBuffer::SpanBuffer(std::uint8_t thread, std::size_t capacity)
    : thread_(thread), records_(capacity) {
  // Touch every page now so recording never faults inside the window.
  std::memset(static_cast<void*>(records_.data()), 0,
              records_.size() * sizeof(Record));
}

std::uint32_t SpanBuffer::open(SpanKind kind, std::uint32_t packet,
                               std::int64_t now) {
  const std::uint32_t parent = depth_ > 0 ? stack_[depth_ - 1].record : 0;
  std::uint32_t record = 0;
  if (size_ < records_.size()) {
    Record& r = records_[size_++];
    r.start_ns = now;
    r.dur_ns = 0;
    r.parent = parent;
    r.packet = packet;
    r.kind = static_cast<std::uint8_t>(kind);
    r.thread = thread_;
    record = static_cast<std::uint32_t>(size_);
  } else {
    ++unstored_;
  }
  stack_[depth_] = Open{now, record, kind};
  return depth_++;
}

void SpanBuffer::close(std::uint32_t token, std::int64_t now) {
  const Open& o = stack_[token];
  const std::int64_t dur = now - o.start;
  if (o.record != 0) {
    records_[o.record - 1].dur_ns = static_cast<std::uint32_t>(
        std::min<std::int64_t>(dur, UINT32_MAX));
  }
  Totals& t = totals_[static_cast<int>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  if (dur > 1'000'000) {
    ++t.over_1ms;
    t.over_1ms_ns += dur;
  }
  if (token > 0) {
    totals_[static_cast<int>(stack_[token - 1].kind)].child_ns += dur;
  }
  depth_ = token;
}

void SpanBuffer::reset_totals() { totals_ = {}; }

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  static constexpr char kMagic[8] = {'P', 'B', 'S', 'P', 'A', 'N', 'S', '1'};
  bool ok = std::fwrite(kMagic, 1, sizeof kMagic, f) == sizeof kMagic;
  for (const SpanBuffer* b : buffers) {
    const auto recs = b->records();
    if (!recs.empty()) {
      ok = ok && std::fwrite(recs.data(), sizeof(SpanBuffer::Record),
                             recs.size(), f) == recs.size();
    }
  }
  return std::fclose(f) == 0 && ok;
}

StallProbe probe_stalls(double seconds) {
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t prev = mono_ns();
  std::int64_t lost = 0;
  std::int64_t longest = 0;
  const std::int64_t start = prev;
  while (prev < end) {
    const std::int64_t now = mono_ns();
    const std::int64_t gap = now - prev;
    if (gap > 50'000) {
      lost += gap;
      longest = std::max(longest, gap);
    }
    prev = now;
  }
  StallProbe p;
  p.lost_share = static_cast<double>(lost) / static_cast<double>(prev - start);
  p.longest_ms = static_cast<double>(longest) / 1e6;
  return p;
}

}  // namespace perfbench
