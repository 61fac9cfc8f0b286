#ifndef RANKTIES_OBS_OBS_H_
#define RANKTIES_OBS_OBS_H_

/// \file
/// Umbrella header for the observability subsystem plus the hot-path
/// helpers the instrumented layers use:
///
///   RANKTIES_OBS_COUNT("access.ta.sorted_accesses", n);
///   RANKTIES_OBS_RECORD("threadpool.queue_depth", depth);
///   obs::FlightSpan span(obs::FlightEventId::kBatchMatrix);
///   span.SetArgs(m, pairs, tiles);
///
/// The macros cache the registry handle in a function-local static, so the
/// name lookup happens once per call site; afterwards the cost is one
/// relaxed load + branch (disabled) or one sharded relaxed fetch_add
/// (enabled).

#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"

#define RANKTIES_OBS_COUNT(name, delta)                           \
  do {                                                            \
    static ::rankties::obs::Counter* const rankties_obs_handle =  \
        ::rankties::obs::GetCounter(name);                        \
    rankties_obs_handle->Add(delta);                              \
  } while (0)

#define RANKTIES_OBS_RECORD(name, value)                           \
  do {                                                             \
    static ::rankties::obs::Histogram* const rankties_obs_handle = \
        ::rankties::obs::GetHistogram(name);                       \
    rankties_obs_handle->Record(value);                            \
  } while (0)

namespace rankties {
namespace obs {

/// Times a scope into a histogram (nanoseconds), e.g. one batch-engine
/// shard. Inert — no clock reads — unless metrics are enabled at
/// construction time.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram)
      : histogram_(Enabled() ? histogram : nullptr) {
    if (histogram_ != nullptr) start_ns_ = MonotonicNanos();
  }

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

  ~ScopedHistogramTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(MonotonicNanos() - start_ns_);
    }
  }

 private:
  Histogram* histogram_;
  std::int64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace rankties

#endif  // RANKTIES_OBS_OBS_H_
