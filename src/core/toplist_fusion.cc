#include "core/toplist_fusion.h"

#include <algorithm>

#include "rank/active_domain.h"

namespace rankties {

StatusOr<TopListFusionResult> FuseTopLists(
    const std::vector<std::vector<std::int64_t>>& tops, std::size_t k,
    MedianPolicy policy) {
  StatusOr<AlignedTopKMany> aligned = AlignManyTopKLists(tops);
  if (!aligned.ok()) return aligned.status();
  StatusOr<std::vector<std::int64_t>> scores =
      MedianRankScoresQuad(aligned->orders, policy);
  if (!scores.ok()) return scores.status();

  const std::size_t n = aligned->items.size();
  const BucketOrder induced = BucketOrder::FromIntKeys(*scores);
  const std::vector<ElementId>& order = induced.by_bucket();

  TopListFusionResult result;
  const std::size_t take = k == 0 ? n : std::min(k, n);
  result.items.reserve(take);
  result.scores_quad.reserve(take);
  for (std::size_t r = 0; r < take; ++r) {
    const std::size_t e = static_cast<std::size_t>(order[r]);
    result.items.push_back(aligned->items[e]);
    result.scores_quad.push_back((*scores)[e]);
  }
  return result;
}

}  // namespace rankties
