#ifndef RANKTIES_CORE_PAIR_COUNTS_H_
#define RANKTIES_CORE_PAIR_COUNTS_H_

#include <cstdint>

#include "rank/bucket_order.h"
#include "util/checked_math.h"

namespace rankties {

/// Classification of all n(n-1)/2 unordered pairs {i,j} of distinct domain
/// elements with respect to two partial rankings sigma, tau.
///
/// Each pair falls in exactly one class:
///  * concordant        — strictly ordered the same way in both;
///  * discordant        — strictly ordered, opposite ways (the set U of
///                        Proposition 6);
///  * tied_sigma_only   — same bucket in sigma, different buckets in tau
///                        (the set S of Proposition 6);
///  * tied_tau_only     — same bucket in tau, different buckets in sigma
///                        (the set T of Proposition 6);
///  * tied_both         — same bucket in both.
///
/// Every Kendall-family quantity in the paper is O(1) arithmetic on these
/// counts:
///   K^(p)  = discordant + p * (tied_sigma_only + tied_tau_only)   (§3.1)
///   Kprof  = K^(1/2)                                              (§3.1)
///   KHaus  = discordant + max(tied_sigma_only, tied_tau_only)     (Prop. 6)
///   tau-b, gamma                                                  (related)
struct PairCounts {
  std::int64_t concordant = 0;
  std::int64_t discordant = 0;
  std::int64_t tied_sigma_only = 0;
  std::int64_t tied_tau_only = 0;
  std::int64_t tied_both = 0;

  /// Total number of unordered pairs = n(n-1)/2. Quadratic in n, so the sum
  /// is overflow-checked: aborts rather than silently wrapping past 2^63.
  std::int64_t Total() const {
    return CheckedAdd(
        CheckedAdd(CheckedAdd(concordant, discordant),
                   CheckedAdd(tied_sigma_only, tied_tau_only)),
        tied_both);
  }

  friend bool operator==(const PairCounts& a, const PairCounts& b) = default;
};

/// Computes the pair classification through the kernel of core/prepared.h
/// on a function-local scratch (O(n log n) worst case). Loops over many
/// pairs should pass their own PairScratch instead. Requires
/// sigma.n() == tau.n().
PairCounts ComputePairCounts(const BucketOrder& sigma, const BucketOrder& tau);

/// Reference O(n^2) implementation used to cross-check the fast path.
PairCounts ComputePairCountsNaive(const BucketOrder& sigma,
                                  const BucketOrder& tau);

}  // namespace rankties

#endif  // RANKTIES_CORE_PAIR_COUNTS_H_
