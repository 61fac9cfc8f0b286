#ifndef RANKTIES_BENCH_E2E_SPANS_H_
#define RANKTIES_BENCH_E2E_SPANS_H_

/// Bench-side spans for the traced run of rankties-e2e. The harness wraps
/// each public library call it makes in a span; nothing inside the library
/// is instrumented, and src/obs stays disabled. Spans are only opened on
/// the harness's calling thread, so the recorder needs no synchronization.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/stopwatch.h"

namespace rankties::e2e {

/// One closed span. `parent` indexes the enclosing span (-1 at a job's
/// top level); every span of one job carries that job's id.
struct Span {
  const char* name = nullptr;  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t job = 0;
};

/// A preallocated in-memory span store, written out once after the run.
/// Recording never allocates: once `capacity` spans are stored, later
/// spans are counted as dropped.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Spans opened from now on belong to job `job`.
  void SetJob(std::int64_t job) { job_ = job; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when the store is full.
  std::int32_t Open(const char* name) {
    if (spans_.size() == capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, MonotonicNanos(), 0, open_, job_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  void Close(std::int32_t index) {
    if (index < 0) return;
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = MonotonicNanos();
    open_ = span.parent;
  }

  /// True while at least `spans` more spans fit; the harness traces a job
  /// only when all of its spans will, so no job is recorded in part.
  bool HasRoom(std::size_t spans) const {
    return capacity_ - spans_.size() >= spans;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Self time of every span: its duration minus the durations of its
  /// direct children (children nest inside their parent on one thread, so
  /// their durations are exactly the covered part).
  std::vector<std::int64_t> SelfNanos() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  /// Writes the spans as Chrome trace-event JSON (complete "X" events on
  /// one track, microsecond timestamps), which Perfetto and
  /// chrome://tracing load. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"rankties-e2e\","
                   "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"job\":%lld,\"parent\":%d}}",
                   i == 0 ? "" : ",", span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.job), span.parent);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int64_t job_ = 0;
  std::size_t dropped_ = 0;
};

/// RAII span around one call; a no-op when `recorder` is null, which is
/// how every job runs in the untraced run.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->Open(name)) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace rankties::e2e

#endif  // RANKTIES_BENCH_E2E_SPANS_H_
