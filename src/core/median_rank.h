#ifndef RANKTIES_CORE_MEDIAN_RANK_H_
#define RANKTIES_CORE_MEDIAN_RANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/status.h"

namespace rankties {

/// How to resolve the median of an even-length list (paper §6 defines
/// median(a_1..a_m) as the *set* {a_{m/2}, a_{m/2+1}, (a_{m/2}+a_{m/2+1})/2}
/// for even m; any choice is a valid median function and Lemma 8 holds for
/// each).
enum class MedianPolicy {
  kLower,    ///< a_{m/2}
  kUpper,    ///< a_{m/2+1}
  kAverage,  ///< (a_{m/2} + a_{m/2+1}) / 2
};

/// Exact median of `values` under `policy`, in quadrupled units: the inputs
/// are doubled positions (integers), the result is 4x the median position so
/// that the kAverage case stays integral. Selects in place on the caller's
/// column (no copy, no full sort), leaving `values` permuted.
std::int64_t MedianQuad(std::span<std::int64_t> values, MedianPolicy policy);

/// The median rank scores f(e) for every element, in quadrupled-position
/// units (paper §6: f in median(sigma_1..sigma_m), per-element medians).
/// Fails unless all inputs share the same non-zero domain size.
StatusOr<std::vector<std::int64_t>> MedianRankScoresQuad(
    const std::vector<BucketOrder>& inputs, MedianPolicy policy);

/// The partial ranking f-bar induced by the median scores (elements with
/// equal medians tied) — the paper's "partial ranking associated with f".
StatusOr<BucketOrder> MedianInducedOrder(const std::vector<BucketOrder>& inputs,
                                         MedianPolicy policy);

/// Full-ranking median aggregation (Theorem 11): a refinement of the induced
/// partial ranking with remaining ties broken by ascending element id.
StatusOr<Permutation> MedianAggregateFull(
    const std::vector<BucketOrder>& inputs, MedianPolicy policy);

/// Top-k median aggregation (Theorem 9): the top-k list whose first k
/// objects are the k best elements of the median score, ordered by it, ties
/// broken by ascending element id. Guaranteed within factor 3 of the optimal
/// top-k list w.r.t. the sum-of-Fprof objective. Requires k <= n.
StatusOr<BucketOrder> MedianAggregateTopK(
    const std::vector<BucketOrder>& inputs, std::size_t k,
    MedianPolicy policy);

/// Sum of L1 distances from the quadrupled score vector `f_quad` to the
/// (quadrupled) position vectors of the inputs: 4 * sum_i L1(f, sigma_i).
/// This is the quantity Lemma 8 proves minimal for the median.
std::int64_t TotalL1ToInputsQuad(const std::vector<std::int64_t>& f_quad,
                                 const std::vector<BucketOrder>& inputs);

}  // namespace rankties

#endif  // RANKTIES_CORE_MEDIAN_RANK_H_
