#ifndef RANKTIES_CORE_PROFILE_METRICS_H_
#define RANKTIES_CORE_PROFILE_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/pair_counts.h"
#include "rank/bucket_order.h"
#include "util/rng.h"

namespace rankties {

/// K^(p), the Kendall distance with penalty parameter p in [0,1] (paper
/// §3.1): discordant pairs cost 1, pairs tied in exactly one ranking cost p,
/// pairs tied in both cost 0. K^(p) is a metric for p in [1/2, 1], a near
/// metric for p in (0, 1/2), and not a distance measure at p = 0
/// (Proposition 13). O(n log n). The point forms here run the kernels of
/// core/prepared.h on a function-local scratch. Every metric entry point
/// in this header returns 0 on degenerate universes (n < 2): there are no
/// pairs to count.
double KendallP(const BucketOrder& sigma, const BucketOrder& tau, double p);

/// K^(p) from precomputed pair counts; O(1).
double KendallPFromCounts(const PairCounts& counts, double p);

/// Kprof = K^(1/2) (paper §3.1). The exact doubled value
/// 2*Kprof = 2*discordant + tied_sigma_only + tied_tau_only is integral.
std::int64_t TwiceKprof(const BucketOrder& sigma, const BucketOrder& tau);

/// 2*Kprof from precomputed pair counts; O(1). Shared by the kernels
/// (core/prepared.h) and the incremental count-delta engine, so both are
/// bit-identical by construction.
std::int64_t TwiceKprofFromCounts(const PairCounts& counts);

/// Kprof as a double.
double Kprof(const BucketOrder& sigma, const BucketOrder& tau);

/// The explicit K-profile of a partial ranking (paper §3.1): the vector over
/// ordered pairs (i,j), i != j, with entry +1/4 if sigma(i) < sigma(j), 0 if
/// tied, -1/4 if sigma(i) > sigma(j). Returned as quartered integers (+1, 0,
/// -1) in row-major order over (i,j), skipping i == j.
///
/// WARNING — O(n^2) memory cliff: the dense profile holds n(n-1) bytes, so
/// n = 2^15 already materializes ~1 GiB and n = 2^16 over 4 GiB. Intended
/// for illustration and tests on small domains only; Kprof itself never
/// materializes this (it is O(1) post-processing on PairCounts).
std::vector<std::int8_t> KProfileQuarters(const BucketOrder& sigma);

/// L1 distance between two K-profiles, divided by 4 to match Kprof; exact
/// doubled value returned (2 * L1/4). Cross-check for TwiceKprof.
std::int64_t TwiceKprofFromProfiles(const std::vector<std::int8_t>& a,
                                    const std::vector<std::int8_t>& b);

/// The F-profile: the vector of doubled positions <2*sigma(i)> (paper §3.1).
std::vector<std::int64_t> FProfileTwice(const BucketOrder& sigma);

/// Kavg for top-k lists (paper A.3, from [10]): the average of K(s, t) over
/// all full refinements s of sigma and t of tau. Exponential-time reference
/// (enumeration); small domains only. The paper notes Kprof == Kavg for
/// top-k lists; tests verify this.
double KavgBrute(const BucketOrder& sigma, const BucketOrder& tau);

/// Kavg in closed form, O(n log n): a discordant pair contributes 1, a
/// pair tied in at least one input contributes 1/2 (independent uniform
/// tie-breaks agree half the time), concordant pairs 0. So
///     Kavg = D + (S + T + B) / 2,
/// which equals Kprof exactly when no pair is tied in *both* inputs —
/// explaining A.3's observation that Kavg is a distance measure on top-k
/// lists over active domains but not on general partial rankings.
double Kavg(const BucketOrder& sigma, const BucketOrder& tau);

/// Monte Carlo estimate of Kavg by sampling `samples` pairs of uniform
/// full refinements — usable when callers want the refinement-averaged
/// distance semantics on domains where enumeration is impossible; the
/// closed form above should be preferred whenever applicable (tests verify
/// the estimator converges to it).
double KavgSampled(const BucketOrder& sigma, const BucketOrder& tau,
                   int samples, Rng& rng);

}  // namespace rankties

#endif  // RANKTIES_CORE_PROFILE_METRICS_H_
