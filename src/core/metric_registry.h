#ifndef RANKTIES_CORE_METRIC_REGISTRY_H_
#define RANKTIES_CORE_METRIC_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "rank/bucket_order.h"

namespace rankties {

class PairScratch;

/// The four partial-ranking metrics of the paper (§3).
enum class MetricKind {
  kKprof,  ///< Kendall profile metric K^(1/2)          (§3.1)
  kFprof,  ///< Footrule profile metric (L1 positions)  (§3.1)
  kKHaus,  ///< Hausdorff-Kendall                       (§3.2)
  kFHaus,  ///< Hausdorff-footrule                      (§3.2)
};

/// All four kinds, in declaration order (handy for sweeps).
const std::vector<MetricKind>& AllMetricKinds();

/// Stable display name: "Kprof", "Fprof", "KHaus", "FHaus".
const char* MetricName(MetricKind kind);

/// Evaluates the metric. All four are exact; Kprof/Fprof may be
/// half-integral, so the result is a double. Runs the kernels of
/// core/prepared.h on a function-local scratch.
double ComputeMetric(MetricKind kind, const BucketOrder& sigma,
                     const BucketOrder& tau);

/// The one metric-kind dispatch: ComputeMetric on a caller-owned scratch,
/// allocation-free once the scratch is warm. The batch and out-of-core
/// engines call it with their pool lane's scratch.
double ComputeMetric(MetricKind kind, const BucketOrder& sigma,
                     const BucketOrder& tau, PairScratch& scratch);

/// A type-erased distance on partial rankings, for generic analyses.
using MetricFn =
    std::function<double(const BucketOrder&, const BucketOrder&)>;

/// The MetricFn computing `kind`.
MetricFn MetricFunction(MetricKind kind);

}  // namespace rankties

#endif  // RANKTIES_CORE_METRIC_REGISTRY_H_
