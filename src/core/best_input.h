#ifndef RANKTIES_CORE_BEST_INPUT_H_
#define RANKTIES_CORE_BEST_INPUT_H_

#include <cstddef>
#include <vector>

#include "core/metric_registry.h"
#include "rank/bucket_order.h"
#include "util/status.h"

namespace rankties {

/// The "trivial" factor-2 aggregation baseline the paper mentions in
/// footnote 4: one of the input rankings always achieves a factor-2
/// approximation of the optimal aggregation under any metric (by the
/// triangle inequality), so returning the input with the smallest total
/// distance to the others is a cheap but non-trivial-to-beat baseline.
struct BestInputResult {
  std::size_t index = 0;   ///< index of the winning input
  double total_cost = 0.0; ///< its summed distance to all inputs
};

/// Picks the input minimizing sum_j d(sigma_i, sigma_j) under `kind`,
/// the first index on ties. One DistanceMatrix: m(m-1)/2 metric
/// evaluations. Fails on an empty input list.
StatusOr<BestInputResult> BestInputAggregate(
    const std::vector<BucketOrder>& inputs, MetricKind kind);

}  // namespace rankties

#endif  // RANKTIES_CORE_BEST_INPUT_H_
