#ifndef RANKTIES_REF_PER_PAIR_H_
#define RANKTIES_REF_PER_PAIR_H_

#include <cstdint>
#include <vector>

#include "core/metric_registry.h"
#include "core/pair_counts.h"
#include "rank/bucket_order.h"

/// The per-pair oracle tier: the polynomial implementations the kernels of
/// core/prepared.h replaced, kept as independently-built references. Each
/// call allocates and sorts afresh; none reads the flat arrays the kernels
/// share except TwiceFprofByPosition, which walks positions one element at
/// a time. The fuzz families, the Theorem 5 tests and the bench_pairwise /
/// bench_hausdorff speedup gates compare the kernels against this code.
/// Nothing here is meant for production callers.
namespace rankties::ref {

/// Pair classification through a hash-map joint histogram, a comparison
/// sort by sigma bucket and a Fenwick inversion count. O(n log n).
PairCounts ComputePairCounts(const BucketOrder& sigma, const BucketOrder& tau);

/// 2*Fprof by a per-element loop over TwicePosition. O(n).
std::int64_t TwiceFprofByPosition(const BucketOrder& sigma,
                                  const BucketOrder& tau);

/// KHaus through Theorem 5: builds the two candidate refinement pairs
/// (rho*tauR*sigma, rho*sigma*tau) and (rho*tau*sigma, rho*sigmaR*tau)
/// with rho the identity full ranking, and takes the larger Kendall
/// distance. O(n log n) with eight sorts.
std::int64_t KHausdorffTheorem5(const BucketOrder& sigma,
                                const BucketOrder& tau);

/// 2*FHaus through the same Theorem 5 construction, with the footrule.
std::int64_t TwiceFHausdorffTheorem5(const BucketOrder& sigma,
                                     const BucketOrder& tau);

/// The value of `kind` through the functions above, in the units of
/// rankties::ComputeMetric.
double UnpreparedMetric(MetricKind kind, const BucketOrder& sigma,
                        const BucketOrder& tau);

/// DistanceMatrix computed pair by pair with UnpreparedMetric in a serial
/// loop over the upper triangle. Bit-identical to DistanceMatrix.
std::vector<std::vector<double>> DistanceMatrixUnprepared(
    MetricKind kind, const std::vector<BucketOrder>& lists);

}  // namespace rankties::ref

#endif  // RANKTIES_REF_PER_PAIR_H_
