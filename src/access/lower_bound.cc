#include "access/lower_bound.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

std::int64_t AccessDepth(const BucketOrder& order, ElementId e) {
  const std::size_t b = static_cast<std::size_t>(order.BucketOf(e));
  const std::span<const ElementId> bucket = order.bucket(b);
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), e);
  RANKTIES_DCHECK(it != bucket.end() && *it == e);
  return static_cast<std::int64_t>(order.bucket_offset()[b]) +
         (it - bucket.begin()) + 1;
}

std::int64_t CertificateLowerBound(const std::vector<BucketOrder>& inputs,
                                   const std::vector<ElementId>& winners) {
  RANKTIES_OBS_COUNT("access.lower_bound.evaluations", 1);
  const std::size_t m = inputs.size();
  if (m == 0 || winners.empty()) return 0;
  const std::size_t majority = m / 2 + 1;
  std::vector<std::int64_t> required(m, 0);
  std::vector<std::pair<std::int64_t, std::size_t>> depths(m);
  for (ElementId w : winners) {
    for (std::size_t i = 0; i < m; ++i) {
      depths[i] = {AccessDepth(inputs[i], w), i};
    }
    std::sort(depths.begin(), depths.end());
    for (std::size_t r = 0; r < majority; ++r) {
      required[depths[r].second] =
          std::max(required[depths[r].second], depths[r].first);
    }
  }
  std::int64_t bound = 0;
  for (std::int64_t d : required) bound += d;
  return bound;
}

}  // namespace rankties
