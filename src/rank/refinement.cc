#include "rank/refinement.h"
#include "util/contracts.h"

#include <algorithm>
#include <numeric>

namespace rankties {

bool IsRefinementOf(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  // Every sigma-bucket must be contained in a single tau-bucket, and the
  // sequence of containing tau-buckets must be non-decreasing.
  BucketIndex prev_tau_bucket = -1;
  for (std::size_t b = 0; b < sigma.num_buckets(); ++b) {
    const std::span<const ElementId> bucket = sigma.bucket(b);
    const BucketIndex tb = tau.BucketOf(bucket.front());
    for (ElementId e : bucket) {
      if (tau.BucketOf(e) != tb) return false;
    }
    if (tb < prev_tau_bucket) return false;
    prev_tau_bucket = tb;
  }
  return true;
}

BucketOrder TauRefine(const BucketOrder& tau, const BucketOrder& sigma) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  std::sort(elems.begin(), elems.end(), [&](ElementId a, ElementId b) {
    const BucketIndex sa = sigma.BucketOf(a), sb = sigma.BucketOf(b);
    if (sa != sb) return sa < sb;
    const BucketIndex ta = tau.BucketOf(a), tb = tau.BucketOf(b);
    if (ta != tb) return ta < tb;
    return a < b;  // deterministic within equal keys
  });
  std::vector<std::vector<ElementId>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    const bool new_bucket =
        i == 0 || sigma.BucketOf(elems[i]) != sigma.BucketOf(elems[i - 1]) ||
        tau.BucketOf(elems[i]) != tau.BucketOf(elems[i - 1]);
    if (new_bucket) buckets.emplace_back();
    buckets.back().push_back(elems[i]);
  }
  StatusOr<BucketOrder> result =
      BucketOrder::FromBuckets(n, std::move(buckets));
  RANKTIES_DCHECK_OK(result);
  return std::move(result).value();
}

Permutation TauRefineFull(const Permutation& tau, const BucketOrder& sigma) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  std::sort(elems.begin(), elems.end(), [&](ElementId a, ElementId b) {
    const BucketIndex sa = sigma.BucketOf(a), sb = sigma.BucketOf(b);
    if (sa != sb) return sa < sb;
    return tau.Rank(a) < tau.Rank(b);
  });
  StatusOr<Permutation> perm = Permutation::FromOrder(elems);
  RANKTIES_DCHECK_OK(perm);
  return std::move(perm).value();
}

Permutation RandomFullRefinement(const BucketOrder& sigma, Rng& rng) {
  std::vector<ElementId> order;
  order.reserve(sigma.n());
  for (std::size_t b = 0; b < sigma.num_buckets(); ++b) {
    std::vector<ElementId> bucket(sigma.bucket(b).begin(),
                                  sigma.bucket(b).end());
    rng.Shuffle(bucket);
    order.insert(order.end(), bucket.begin(), bucket.end());
  }
  StatusOr<Permutation> perm = Permutation::FromOrder(order);
  RANKTIES_DCHECK_OK(perm);
  return std::move(perm).value();
}

}  // namespace rankties
