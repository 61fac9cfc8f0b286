#ifndef RANKTIES_CORE_COST_H_
#define RANKTIES_CORE_COST_H_

#include <cstdint>
#include <vector>

#include "core/metric_registry.h"
#include "rank/bucket_order.h"

namespace rankties {

/// The paper's aggregation objective (§6): sum over the inputs of the L1
/// distance between position vectors, i.e. sum_i Fprof(candidate, sigma_i).
/// Exact doubled value. O(m n).
std::int64_t TwiceTotalFprof(const BucketOrder& candidate,
                             const std::vector<BucketOrder>& inputs);

/// Sum over inputs of an arbitrary metric: DistancesToAll (parallel over the
/// inputs) summed serially in index order, so the result is bit-identical
/// at every lane count.
double TotalDistance(MetricKind kind, const BucketOrder& candidate,
                     const std::vector<BucketOrder>& inputs);

/// Sum over inputs of K^(p) (used by Kemeny-style objectives).
double TotalKendallP(const BucketOrder& candidate,
                     const std::vector<BucketOrder>& inputs, double p);

/// candidate_cost / optimal_cost, with 0/0 treated as ratio 1 (both optimal)
/// and x/0 for x > 0 as +infinity.
double ApproxRatio(double candidate_cost, double optimal_cost);

}  // namespace rankties

#endif  // RANKTIES_CORE_COST_H_
