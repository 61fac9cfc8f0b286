#ifndef RANKTIES_RANK_REFINEMENT_H_
#define RANKTIES_RANK_REFINEMENT_H_

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/rng.h"

namespace rankties {

/// Returns true if `sigma` is a refinement of `tau` (paper §2):
/// tau(i) < tau(j) implies sigma(i) < sigma(j) for all i, j.
/// Equivalently, every bucket of sigma lies inside a bucket of tau and the
/// tau-bucket index is non-decreasing along sigma's buckets. O(n).
/// Both orders must share the same domain size.
bool IsRefinementOf(const BucketOrder& sigma, const BucketOrder& tau);

/// The tau-refinement of sigma, written tau * sigma in the paper (§2):
/// the refinement of sigma whose ties are broken according to tau; pairs
/// tied in both stay tied. Implemented as a stable re-bucketing by the
/// lexicographic key (sigma bucket, tau bucket). O(n log n). Associative.
BucketOrder TauRefine(const BucketOrder& tau, const BucketOrder& sigma);

/// tau * sigma where tau is a full ranking; the result is then a full
/// ranking (paper §2), returned as a Permutation.
Permutation TauRefineFull(const Permutation& tau, const BucketOrder& sigma);

/// A uniformly random full refinement of `sigma`.
Permutation RandomFullRefinement(const BucketOrder& sigma, Rng& rng);

}  // namespace rankties

#endif  // RANKTIES_RANK_REFINEMENT_H_
