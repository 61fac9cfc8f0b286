#ifndef RANKTIES_BENCH_E2E_STATS_H_
#define RANKTIES_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace rankties::e2e {

/// Samples that must lie beyond a reported tail percentile. A p90 over
/// fewer than 100 jobs would rest on a handful of samples, so it is not
/// reported at all.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// The q-quantile (0 < q < 1) of `values` by nearest rank, or nullopt when
/// fewer than kMinSamplesBeyond samples rank above it: p90 needs at least
/// 100 samples, p50 at least 20.
inline std::optional<double> TailPercentile(std::vector<double> values,
                                            double q) {
  const std::size_t n = values.size();
  // The epsilon keeps a product that rounding lifts just past an integer
  // on that integer.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || rank > n || n - rank < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// The median (mean of the middle two for an even count), or nullopt when
/// `values` is empty. For per-layer summaries, which may rest on a few
/// probe repetitions.
inline std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace rankties::e2e

#endif  // RANKTIES_BENCH_E2E_STATS_H_
