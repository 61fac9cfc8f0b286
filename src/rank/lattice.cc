#include "rank/lattice.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "rank/refinement.h"
#include "util/contracts.h"

namespace rankties {

StatusOr<BucketOrder> CoarsestCommonRefinement(const BucketOrder& sigma,
                                               const BucketOrder& tau) {
  if (sigma.n() != tau.n()) {
    return Status::InvalidArgument("domain size mismatch");
  }
  // TauRefine keeps a pair tied exactly when both inputs tie it, which is
  // the coarsest any common refinement can be; it is a genuine common
  // refinement iff no pair is discordant.
  const BucketOrder candidate = TauRefine(tau, sigma);
  if (!IsRefinementOf(candidate, tau)) {
    return Status::FailedPrecondition(
        "no common refinement: the orders contain a discordant pair");
  }
  RANKTIES_DCHECK(IsRefinementOf(candidate, sigma));
  return candidate;
}

BucketOrder FinestCommonCoarsening(const BucketOrder& sigma,
                                   const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  if (n == 0) return BucketOrder();

  // fX(e): cumulative element count at the end of e's bucket in X — the
  // smallest prefix length (at a bucket boundary) containing e.
  auto boundary_of = [](const BucketOrder& order) {
    std::vector<std::int64_t> f(order.n());
    for (std::size_t e = 0; e < order.n(); ++e) {
      const std::size_t b = static_cast<std::size_t>(order.bucket_of()[e]);
      f[e] = static_cast<std::int64_t>(order.bucket_offset()[b + 1]);
    }
    return f;
  };
  const std::vector<std::int64_t> f_sigma = boundary_of(sigma);
  const std::vector<std::int64_t> f_tau = boundary_of(tau);

  // A prefix length s is a valid cut iff both orders have a bucket
  // boundary at s over the SAME element set: every element with
  // f_sigma <= s also has f_tau <= s and vice versa. Sweep s upward over
  // sigma's boundaries, tracking the max f_tau among the first s elements
  // (by f_sigma) and symmetrically.
  std::vector<ElementId> by_sigma(n);
  std::iota(by_sigma.begin(), by_sigma.end(), 0);
  std::sort(by_sigma.begin(), by_sigma.end(), [&](ElementId a, ElementId b) {
    return f_sigma[static_cast<std::size_t>(a)] <
           f_sigma[static_cast<std::size_t>(b)];
  });
  const std::set<std::int64_t> tau_boundaries(
      tau.bucket_offset().begin() + 1, tau.bucket_offset().end());

  std::vector<std::int64_t> cuts;
  std::int64_t max_tau = 0;
  std::size_t i = 0;
  std::int64_t prefix = 0;
  while (i < n) {
    // Consume one sigma bucket worth of elements (same f_sigma value).
    const std::int64_t boundary =
        f_sigma[static_cast<std::size_t>(by_sigma[i])];
    while (i < n &&
           f_sigma[static_cast<std::size_t>(by_sigma[i])] == boundary) {
      max_tau = std::max(max_tau,
                         f_tau[static_cast<std::size_t>(by_sigma[i])]);
      ++i;
      ++prefix;
    }
    // Valid cut: sigma boundary here (by construction), tau boundary at
    // the same prefix, and the first `prefix` sigma-elements all fall in
    // tau's first `prefix` slots (set equality follows by counting).
    if (tau_boundaries.count(prefix) > 0 && max_tau <= prefix) {
      cuts.push_back(prefix);
    }
  }
  RANKTIES_DCHECK(!cuts.empty() && cuts.back() == static_cast<std::int64_t>(n));

  // Assemble: bucket b = elements with previous_cut < f_sigma <= cut.
  std::vector<BucketIndex> bucket_of(n);
  for (std::size_t e = 0; e < n; ++e) {
    const auto it =
        std::lower_bound(cuts.begin(), cuts.end(), f_sigma[e]);
    bucket_of[e] = static_cast<BucketIndex>(it - cuts.begin());
  }
  StatusOr<BucketOrder> result = BucketOrder::FromBucketIndex(bucket_of);
  RANKTIES_DCHECK_OK(result);
  return std::move(result).value();
}

}  // namespace rankties
