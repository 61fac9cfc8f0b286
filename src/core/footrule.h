#ifndef RANKTIES_CORE_FOOTRULE_H_
#define RANKTIES_CORE_FOOTRULE_H_

#include <cstdint>

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/status.h"

namespace rankties {

/// Spearman footrule distance between two full rankings (paper §2.2):
/// F(sigma, tau) = sum_i |sigma(i) - tau(i)| over 1-based ranks. Exact
/// integer. O(n).
std::int64_t Footrule(const Permutation& sigma, const Permutation& tau);

/// Maximum possible footrule distance on n elements: floor(n^2 / 2).
std::int64_t MaxFootrule(std::size_t n);

/// Fprof (paper §3.1): the L1 distance between the position vectors of two
/// partial rankings. Positions are half-integral, so the exact value is
/// returned doubled: TwiceFprof = sum_i |2 sigma(i) - 2 tau(i)|. A straight
/// walk over the two twice_position() arrays (SIMD-dispatched,
/// util/simd.h); O(n), allocation-free, needs no scratch.
std::int64_t TwiceFprof(const BucketOrder& sigma, const BucketOrder& tau);

/// Fprof as a double (= TwiceFprof / 2).
double Fprof(const BucketOrder& sigma, const BucketOrder& tau);

/// The footrule distance with location parameter ell (paper A.3, from
/// Fagin–Kumar–Sivakumar [10]): both inputs must be top-k lists over the
/// same domain; every element below the top k is treated as if at position
/// ell, then L1 is taken. `twice_ell` passes 2*ell so that the half-integral
/// canonical choice ell = (|D|+k+1)/2 stays exact. Result is doubled.
/// Fails unless both inputs are top-k lists for the given k.
StatusOr<std::int64_t> TwiceFootruleLocation(const BucketOrder& sigma,
                                             const BucketOrder& tau,
                                             std::size_t k,
                                             std::int64_t twice_ell);

}  // namespace rankties

#endif  // RANKTIES_CORE_FOOTRULE_H_
