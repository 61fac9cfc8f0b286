#ifndef RANKTIES_CORE_KENDALL_H_
#define RANKTIES_CORE_KENDALL_H_

#include <cstdint>

#include "rank/permutation.h"

namespace rankties {

/// Kendall tau distance between two full rankings (paper §2.2): the number
/// of pairs {i,j} ordered oppositely — equivalently the number of bubble-
/// sort exchanges turning one into the other. O(n log n) via merge-sort
/// inversion counting.
std::int64_t KendallTau(const Permutation& sigma, const Permutation& tau);

/// Maximum possible Kendall distance on n elements: n(n-1)/2.
std::int64_t MaxKendall(std::size_t n);

/// Normalized Kendall distance in [0,1] (0 for n < 2).
double KendallTauNormalized(const Permutation& sigma, const Permutation& tau);

}  // namespace rankties

#endif  // RANKTIES_CORE_KENDALL_H_
