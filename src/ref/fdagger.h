#ifndef RANKTIES_REF_FDAGGER_H_
#define RANKTIES_REF_FDAGGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

/// Oracles for the f-dagger dynamic program of core/optimal_bucketing.h:
/// the paper's Figure 1 and the exhaustive search over types, each built
/// independently of the DP. The parity tests and bench_dp compare
/// OptimalBucketing against them. Nothing here is meant for production
/// callers.
namespace rankties::ref {

/// The optimal cost 4 * L1(f-dagger, f) for f(e) = quad_scores[e] / 4, by
/// Figure 1 (Appendix A.6.4): the O(n^2)-time, O(n)-space DP over the
/// sorted scores, in which c(i, j) follows from c(i-1, j) by the Lemma 37
/// update with a monotone cursor. Requires every quad score even (2f
/// integral), the figure's precondition, and scores small enough that no
/// cost overflows.
std::int64_t FDaggerCostFigure1(const std::vector<std::int64_t>& quad_scores);

/// The optimal cost 4 * L1(f-dagger, f) by trying every composition of n
/// as the type of a bucket order consistent with the sorted scores
/// (optimal by the paper's Lemma 27). O(2^(n-1) n). Fails on empty input,
/// on n > 20, and on scores OptimalBucketing refuses.
StatusOr<std::int64_t> FDaggerCostBrute(
    const std::vector<std::int64_t>& quad_scores);

/// 4 * L1(order, f) for the order that puts the elements, sorted ascending
/// by `quad_scores`, into consecutive buckets of the given sizes. Fails if
/// a size is zero or the sizes do not sum to n, and on scores
/// OptimalBucketing refuses.
StatusOr<std::int64_t> BucketingCostQuad(
    const std::vector<std::int64_t>& quad_scores,
    const std::vector<std::size_t>& sizes);

}  // namespace rankties::ref

#endif  // RANKTIES_REF_FDAGGER_H_
