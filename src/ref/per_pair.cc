#include "ref/per_pair.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/kendall.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "rank/refinement.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/fenwick.h"

namespace rankties::ref {

namespace {

/// The two candidate refinement pairs of Theorem 5, with rho = identity.
struct Theorem5Pairs {
  Permutation sigma1, tau1;  // (rho*tauR*sigma, rho*sigma*tau)
  Permutation sigma2, tau2;  // (rho*tau*sigma,  rho*sigmaR*tau)
};

Theorem5Pairs BuildTheorem5Pairs(const BucketOrder& sigma,
                                 const BucketOrder& tau) {
  const Permutation rho(sigma.n());  // arbitrary full ranking: identity
  const BucketOrder sigma_rev = sigma.Reverse();
  const BucketOrder tau_rev = tau.Reverse();
  return Theorem5Pairs{
      TauRefineFull(rho, TauRefine(tau_rev, sigma)),
      TauRefineFull(rho, TauRefine(sigma, tau)),
      TauRefineFull(rho, TauRefine(tau, sigma)),
      TauRefineFull(rho, TauRefine(sigma_rev, tau)),
  };
}

}  // namespace

PairCounts ComputePairCounts(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  PairCounts counts;
  if (n < 2) return counts;

  // --- Tie classes via bucket histograms. ---
  // tied_both: pairs sharing both a sigma bucket and a tau bucket. Group by
  // the joint key (sigma bucket, tau bucket).
  std::unordered_map<std::int64_t, std::int64_t> joint;
  joint.reserve(n);
  const std::int64_t tau_buckets = static_cast<std::int64_t>(tau.num_buckets());
  for (std::size_t e = 0; e < n; ++e) {
    const std::int64_t key =
        static_cast<std::int64_t>(sigma.BucketOf(static_cast<ElementId>(e))) *
            tau_buckets +
        tau.BucketOf(static_cast<ElementId>(e));
    ++joint[key];
  }
  for (const auto& [key, size] : joint) {
    counts.tied_both += CheckedChoose2(size);
  }

  std::int64_t tied_sigma_pairs = 0;  // pairs tied in sigma (incl. tied_both)
  for (std::size_t b = 0; b < sigma.num_buckets(); ++b) {
    tied_sigma_pairs +=
        CheckedChoose2(static_cast<std::int64_t>(sigma.bucket(b).size()));
  }
  std::int64_t tied_tau_pairs = 0;
  for (std::size_t b = 0; b < tau.num_buckets(); ++b) {
    tied_tau_pairs +=
        CheckedChoose2(static_cast<std::int64_t>(tau.bucket(b).size()));
  }
  counts.tied_sigma_only = tied_sigma_pairs - counts.tied_both;
  counts.tied_tau_only = tied_tau_pairs - counts.tied_both;

  // --- Discordant pairs via Fenwick inversion counting. ---
  // Process elements sigma-bucket by sigma-bucket (ascending). For each new
  // element with tau-bucket t, elements already inserted come from strictly
  // earlier sigma buckets; those with tau-bucket > t form discordant pairs.
  // Elements of the same sigma bucket are queried before any of them is
  // inserted, so sigma-ties never count.
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  std::sort(elems.begin(), elems.end(), [&](ElementId a, ElementId b) {
    return sigma.BucketOf(a) < sigma.BucketOf(b);
  });
  Fenwick<std::int64_t> seen(tau.num_buckets());
  std::size_t i = 0;
  std::int64_t inserted = 0;
  while (i < n) {
    std::size_t j = i;
    const BucketIndex sb = sigma.BucketOf(elems[i]);
    while (j < n && sigma.BucketOf(elems[j]) == sb) ++j;
    for (std::size_t k = i; k < j; ++k) {
      const std::size_t tb = static_cast<std::size_t>(tau.BucketOf(elems[k]));
      // inserted elements with tau bucket strictly greater than tb:
      counts.discordant += inserted - seen.PrefixSum(tb);
    }
    for (std::size_t k = i; k < j; ++k) {
      seen.Add(static_cast<std::size_t>(tau.BucketOf(elems[k])), 1);
      ++inserted;
    }
    i = j;
  }

  counts.concordant = CheckedChoose2(static_cast<std::int64_t>(n)) -
                      counts.discordant - counts.tied_sigma_only -
                      counts.tied_tau_only - counts.tied_both;
  return counts;
}

std::int64_t TwiceFprofByPosition(const BucketOrder& sigma,
                                  const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  std::int64_t total = 0;
  for (std::size_t e = 0; e < sigma.n(); ++e) {
    total += std::abs(sigma.TwicePosition(static_cast<ElementId>(e)) -
                      tau.TwicePosition(static_cast<ElementId>(e)));
  }
  return total;
}

std::int64_t KHausdorffTheorem5(const BucketOrder& sigma,
                                const BucketOrder& tau) {
  if (sigma.n() < 2) return 0;  // skip the construction entirely
  const Theorem5Pairs pairs = BuildTheorem5Pairs(sigma, tau);
  return std::max(rankties::KendallTau(pairs.sigma1, pairs.tau1),
                  rankties::KendallTau(pairs.sigma2, pairs.tau2));
}

std::int64_t TwiceFHausdorffTheorem5(const BucketOrder& sigma,
                                     const BucketOrder& tau) {
  if (sigma.n() < 2) return 0;  // skip the construction entirely
  const Theorem5Pairs pairs = BuildTheorem5Pairs(sigma, tau);
  return 2 * std::max(rankties::Footrule(pairs.sigma1, pairs.tau1),
                      rankties::Footrule(pairs.sigma2, pairs.tau2));
}

double UnpreparedMetric(MetricKind kind, const BucketOrder& sigma,
                        const BucketOrder& tau) {
  switch (kind) {
    case MetricKind::kKprof:
      return static_cast<double>(
                 TwiceKprofFromCounts(ref::ComputePairCounts(sigma, tau))) /
             2.0;
    case MetricKind::kFprof:
      return static_cast<double>(TwiceFprofByPosition(sigma, tau)) / 2.0;
    case MetricKind::kKHaus:
      return static_cast<double>(
          KHausdorffFromCounts(ref::ComputePairCounts(sigma, tau)));
    case MetricKind::kFHaus:
      return static_cast<double>(TwiceFHausdorffTheorem5(sigma, tau)) / 2.0;
  }
  return 0.0;  // unreachable; keeps -Wreturn-type quiet
}

std::vector<std::vector<double>> DistanceMatrixUnprepared(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  const std::size_t m = lists.size();
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  const std::int64_t pairs = CheckedChoose2(CheckedInt64(m));
  obs::FlightSpan span(obs::FlightEventId::kBatchMatrixUnprepared);
  span.SetArgs(static_cast<std::int64_t>(m), pairs);
  RANKTIES_OBS_COUNT("batch.metric_evals", pairs);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double d = UnpreparedMetric(kind, lists[i], lists[j]);
      matrix[i][j] = d;
      matrix[j][i] = d;
    }
  }
  return matrix;
}

}  // namespace rankties::ref
