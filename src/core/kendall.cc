#include "core/kendall.h"

#include <vector>

#include "util/checked_math.h"
#include "util/contracts.h"

namespace rankties {

namespace {

// Counts inversions in `values` by bottom-up merge sort; O(n log n).
std::int64_t CountInversions(std::vector<ElementId>& values) {
  const std::size_t n = values.size();
  std::vector<ElementId> buffer(n);
  std::int64_t inversions = 0;
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo + width < n; lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (values[i] <= values[j]) {
          buffer[k++] = values[i++];
        } else {
          inversions += static_cast<std::int64_t>(mid - i);
          buffer[k++] = values[j++];
        }
      }
      while (i < mid) buffer[k++] = values[i++];
      while (j < hi) buffer[k++] = values[j++];
      std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                buffer.begin() + static_cast<std::ptrdiff_t>(hi),
                values.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

}  // namespace

std::int64_t KendallTau(const Permutation& sigma, const Permutation& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  // Walk sigma's order and collect tau ranks; inversions in that sequence
  // are exactly the discordant pairs.
  std::vector<ElementId> tau_ranks(n);
  for (std::size_t r = 0; r < n; ++r) {
    tau_ranks[r] = tau.Rank(sigma.At(static_cast<ElementId>(r)));
  }
  return CountInversions(tau_ranks);
}

std::int64_t MaxKendall(std::size_t n) {
  if (n < 2) return 0;
  // n(n-1)/2 silently wraps for n a little past 2^32; divide the even factor
  // by 2 first so the checked product only overflows when the result would.
  const std::int64_t v = CheckedInt64(n);
  return n % 2 == 0 ? CheckedMul(v / 2, v - 1) : CheckedMul(v, (v - 1) / 2);
}

double KendallTauNormalized(const Permutation& sigma, const Permutation& tau) {
  if (sigma.n() < 2) return 0.0;
  return static_cast<double>(KendallTau(sigma, tau)) /
         static_cast<double>(MaxKendall(sigma.n()));
}

}  // namespace rankties
