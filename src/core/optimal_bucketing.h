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

/// Exhaustive reference: tries every composition of n as the type of a
/// bucket order consistent with the sorted scores (optimal by the paper's
/// Lemma 27) and returns the best. O(2^(n-1)); small n only.
StatusOr<BucketingResult> OptimalBucketingBrute(
    const std::vector<std::int64_t>& quad_scores);

/// Cost (in quad units) of bucketing the elements, sorted ascending by
/// `quad_scores`, into consecutive blocks of the given sizes:
/// 4 * L1(order, f). Helper shared with tests/benches. Fails if sizes do
/// not sum to n, or on scores OptimalBucketing refuses.
StatusOr<std::int64_t> BucketingCostQuad(
    const std::vector<std::int64_t>& quad_scores,
    const std::vector<std::size_t>& sizes);

}  // namespace rankties

#endif  // RANKTIES_CORE_OPTIMAL_BUCKETING_H_
