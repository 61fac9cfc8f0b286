#ifndef RANKTIES_UTIL_STOPWATCH_H_
#define RANKTIES_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace rankties {

/// Monotonic timestamp in nanoseconds on std::chrono::steady_clock. All
/// timing in the library (stopwatches, obs flight spans, bench harnesses)
/// reads this one clock so timestamps are comparable across subsystems and
/// never jump with wall-clock adjustments.
inline std::int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch for the custom bench harnesses (the google-benchmark
/// binaries do their own timing).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rankties

#endif  // RANKTIES_UTIL_STOPWATCH_H_
