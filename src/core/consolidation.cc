#include "core/consolidation.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "core/optimal_bucketing.h"

namespace rankties {

namespace {

Status ValidateType(const std::vector<std::size_t>& type, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t t : type) {
    if (t == 0) return Status::InvalidArgument("zero bucket size in type");
    total += t;
  }
  if (total != n) {
    return Status::InvalidArgument("type sizes do not sum to domain size");
  }
  return Status::Ok();
}

// Buckets `elems` (already in the desired order) into consecutive blocks of
// the given sizes.
BucketOrder BlocksOf(const std::vector<ElementId>& elems,
                     const std::vector<std::size_t>& type) {
  std::vector<BucketIndex> bucket_of(elems.size());
  std::size_t at = 0;
  for (std::size_t b = 0; b < type.size(); ++b) {
    for (std::size_t i = 0; i < type[b]; ++i, ++at) {
      bucket_of[static_cast<std::size_t>(elems[at])] =
          static_cast<BucketIndex>(b);
    }
  }
  StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(bucket_of);
  return std::move(order).value();
}

}  // namespace

StatusOr<ConsolidationResult> ConsolidateToType(
    const std::vector<std::int64_t>& quad_scores,
    const std::vector<std::size_t>& alpha) {
  const std::size_t n = quad_scores.size();
  if (n == 0) return Status::InvalidArgument("no scores");
  Status s = ValidateType(alpha, n);
  if (!s.ok()) return s;
  // Score order, ties by ascending id.
  const BucketOrder by_score = BucketOrder::FromIntKeys(quad_scores);
  ConsolidationResult result{BlocksOf(by_score.by_bucket(), alpha), 0};
  for (ElementId e = 0; e < static_cast<ElementId>(n); ++e) {
    result.cost_quad +=
        std::abs(quad_scores[static_cast<std::size_t>(e)] -
                 2 * result.order.TwicePosition(e));
  }
  return result;
}

StatusOr<BucketOrder> ProjectConsistent(
    const std::vector<std::int64_t>& quad_scores, const BucketOrder& sigma,
    const std::vector<std::size_t>& beta) {
  const std::size_t n = quad_scores.size();
  if (sigma.n() != n) {
    return Status::InvalidArgument("domain size mismatch");
  }
  Status s = ValidateType(beta, n);
  if (!s.ok()) return s;
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  // Lemma 34's rho: refine sigma's ties by the scores, remaining ties by
  // id; order-preserving beta blocks over rho are consistent with both.
  std::stable_sort(elems.begin(), elems.end(), [&](ElementId a, ElementId b) {
    if (sigma.BucketOf(a) != sigma.BucketOf(b)) {
      return sigma.BucketOf(a) < sigma.BucketOf(b);
    }
    return quad_scores[static_cast<std::size_t>(a)] <
           quad_scores[static_cast<std::size_t>(b)];
  });
  return BlocksOf(elems, beta);
}

StatusOr<StrongTopKResult> StrongMedianTopK(
    const std::vector<BucketOrder>& inputs, std::size_t k,
    MedianPolicy policy) {
  StatusOr<std::vector<std::int64_t>> scores =
      MedianRankScoresQuad(inputs, policy);
  if (!scores.ok()) return scores.status();
  const std::size_t n = scores->size();
  if (k > n) return Status::InvalidArgument("k exceeds domain size");
  StatusOr<BucketingResult> fdagger = OptimalBucketing(*scores);
  if (!fdagger.ok()) return fdagger.status();
  // sigma' = f-dagger itself: it lies in <f>_beta for beta = its own type
  // and is L1-optimal over all partial rankings (Theorem 10).
  const BucketOrder& certificate = fdagger->order;
  // The top-k projection: order by (certificate bucket, score, id), then
  // cut into the top-k type.
  std::vector<std::size_t> alpha;
  if (k == n) {
    alpha.assign(n, 1);
  } else {
    alpha.assign(k, 1);
    alpha.push_back(n - k);
  }
  StatusOr<BucketOrder> projected =
      ProjectConsistent(*scores, certificate, alpha);
  if (!projected.ok()) return projected.status();
  return StrongTopKResult{std::move(projected).value(), certificate};
}

}  // namespace rankties
