#ifndef RANKTIES_CORE_HAUSDORFF_H_
#define RANKTIES_CORE_HAUSDORFF_H_

#include <cstdint>

#include "core/pair_counts.h"
#include "rank/bucket_order.h"

namespace rankties {

/// KHaus (paper §3.2): the Hausdorff distance, under Kendall tau, between
/// the sets of full refinements of sigma and tau. Computed in O(n log n)
/// through Proposition 6: KHaus = |U| + max(|S|, |T|) where U is the set of
/// discordant untied pairs and S/T the pairs tied in exactly one input.
/// All Hausdorff entry points return 0 on degenerate universes (n < 2).
/// The point forms here run the kernels of core/prepared.h on a
/// function-local scratch.
std::int64_t KHausdorff(const BucketOrder& sigma, const BucketOrder& tau);

/// Proposition 6 on precomputed pair counts; O(1). Shared by the kernels
/// (core/prepared.h) and the incremental count-delta engine.
std::int64_t KHausdorffFromCounts(const PairCounts& counts);

/// FHaus (paper §3.2), doubled (the full-ranking footrule is integral).
/// There is no count formula for FHaus in the paper; the kernel evaluates
/// Theorem 5's construction cell by cell (core/prepared.h), and the
/// explicit construction lives on in src/ref as its oracle.
std::int64_t TwiceFHausdorff(const BucketOrder& sigma, const BucketOrder& tau);

/// FHaus as a double.
double FHausdorff(const BucketOrder& sigma, const BucketOrder& tau);

}  // namespace rankties

#endif  // RANKTIES_CORE_HAUSDORFF_H_
