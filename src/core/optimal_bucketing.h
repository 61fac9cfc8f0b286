#ifndef RANKTIES_CORE_OPTIMAL_BUCKETING_H_
#define RANKTIES_CORE_OPTIMAL_BUCKETING_H_

#include <cstdint>
#include <vector>

#include "rank/bucket_order.h"
#include "util/status.h"

namespace rankties {

/// Result of consolidating a score function into a partial ranking.
struct BucketingResult {
  /// f-dagger: the partial ranking minimizing L1(f-dagger, f) over all
  /// partial rankings (Theorem 10), as a bucket order on the original ids.
  BucketOrder order;
  /// The optimal cost in quadrupled units: 4 * L1(f-dagger, f).
  std::int64_t cost_quad = 0;
};

/// Computes f-dagger for the score function given by `quad_scores` (element
/// e has f(e) = quad_scores[e] / 4; use MedianRankScoresQuad to produce
/// them) by the O(n^2)-time, O(n)-space dynamic program of the paper's
/// Appendix A.6.4. Any integer scores work; 2f need not be integral.
/// Among optimal orders it returns the one whose last bucket starts
/// earliest, recursively. Fails on empty input, or when
/// n * (max |quad score| + 4n + 4) exceeds INT64_MAX / 4, beyond which a
/// cost could overflow.
StatusOr<BucketingResult> OptimalBucketing(
    const std::vector<std::int64_t>& quad_scores);

}  // namespace rankties

#endif  // RANKTIES_CORE_OPTIMAL_BUCKETING_H_
