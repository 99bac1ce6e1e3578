#include "util/io.h"

#include <stdexcept>

#include "util/serial.h"

namespace rapidware::util {

std::size_t ByteSource::read_borrow(std::size_t max, SpanVisitor visit) {
  // Base-class adaptation: read into a stack buffer and offer it as one
  // span. There is nowhere to retain a tail, so the visitor is called until
  // everything read has been consumed (SpanVisitor contracts require
  // forward progress; FrameReader always consumes all in one call).
  std::uint8_t tmp[4096];
  std::size_t want = sizeof tmp;
  if (max != 0 && max < want) want = max;
  const std::size_t n = read_some(MutableByteSpan(tmp, want));
  if (n == 0) return 0;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t c = visit(ByteSpan(tmp + done, n - done), ByteSpan());
    if (c == 0) {
      throw SerialError(
          "read_borrow: visitor made no progress over a non-retaining "
          "source");
    }
    done += c;
  }
  return done;
}

std::size_t ByteSource::read_exact(MutableByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = read_some(out.subspan(got));
    if (n == 0) break;  // end of stream
    got += n;
  }
  return got;
}

bool ByteSource::read_full(MutableByteSpan out, const char* what) {
  const std::size_t got = read_exact(out);
  if (got == out.size()) return true;
  if (got == 0) return false;  // clean EOF before the first byte
  throw SerialError(std::string(what) +
                    ": stream ended mid-read (torn read, " +
                    std::to_string(got) + " of " +
                    std::to_string(out.size()) + " bytes)");
}

std::size_t ByteSource::poll_read_borrow(std::size_t max, SpanVisitor visit,
                                         bool* end) {
  (void)max;
  (void)visit;
  (void)end;
  throw std::logic_error("poll_read_borrow: this source cannot poll");
}

void ByteSink::write_vec(std::span<const ByteSpan> segments) {
  if (segments.size() == 1) {
    write(segments[0]);
    return;
  }
  // Preserve the single-call atomicity contract for sinks that do not
  // override: assemble once, hand over in one write().
  std::size_t total = 0;
  for (const ByteSpan seg : segments) total += seg.size();
  Bytes assembled;
  assembled.reserve(total);
  for (const ByteSpan seg : segments) {
    assembled.insert(assembled.end(), seg.begin(), seg.end());
  }
  write(assembled);
}

bool ByteSink::try_write_vec(std::span<const ByteSpan> segments) {
  (void)segments;
  throw std::logic_error("try_write_vec: this sink cannot poll");
}

}  // namespace rapidware::util
