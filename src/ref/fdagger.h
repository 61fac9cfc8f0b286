#ifndef RANKTIES_REF_FDAGGER_H_
#define RANKTIES_REF_FDAGGER_H_

#include <cstdint>
#include <vector>

/// The paper's Figure 1, kept as an independently-built oracle for the
/// f-dagger dynamic program of core/optimal_bucketing.h. The parity tests
/// and bench_dp compare OptimalBucketing against it. Nothing here is meant
/// for production callers.
namespace rankties::ref {

/// The optimal cost 4 * L1(f-dagger, f) for f(e) = quad_scores[e] / 4, by
/// Figure 1 (Appendix A.6.4): the O(n^2)-time, O(n)-space DP over the
/// sorted scores, in which c(i, j) follows from c(i-1, j) by the Lemma 37
/// update with a monotone cursor. Requires every quad score even (2f
/// integral), the figure's precondition, and scores small enough that no
/// cost overflows.
std::int64_t FDaggerCostFigure1(const std::vector<std::int64_t>& quad_scores);

}  // namespace rankties::ref

#endif  // RANKTIES_REF_FDAGGER_H_
