#include "ref/ref_metrics.h"
#include "util/contracts.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

namespace rankties::ref {

namespace {

// --- Self-contained enumeration of full refinements. ---
//
// NextBucket/PermuteTail walk the buckets front to back; within each bucket
// every ordering of its elements is produced by the classic swap recursion.
// The concatenation of per-bucket orderings is exactly the set of full
// refinements (paper §2).

void PermuteTail(const BucketOrder& sigma, std::size_t b,
                 std::vector<ElementId>& pool, std::size_t start,
                 std::vector<ElementId>& prefix,
                 const std::function<void(const std::vector<ElementId>&)>&
                     visit);

void NextBucket(const BucketOrder& sigma, std::size_t b,
                std::vector<ElementId>& prefix,
                const std::function<void(const std::vector<ElementId>&)>&
                    visit) {
  if (b == sigma.num_buckets()) {
    visit(prefix);
    return;
  }
  std::vector<ElementId> pool(sigma.bucket(b).begin(), sigma.bucket(b).end());
  PermuteTail(sigma, b, pool, 0, prefix, visit);
}

void PermuteTail(const BucketOrder& sigma, std::size_t b,
                 std::vector<ElementId>& pool, std::size_t start,
                 std::vector<ElementId>& prefix,
                 const std::function<void(const std::vector<ElementId>&)>&
                     visit) {
  if (start == pool.size()) {
    NextBucket(sigma, b + 1, prefix, visit);
    return;
  }
  for (std::size_t i = start; i < pool.size(); ++i) {
    std::swap(pool[start], pool[i]);
    prefix.push_back(pool[start]);
    PermuteTail(sigma, b, pool, start + 1, prefix, visit);
    prefix.pop_back();
    std::swap(pool[start], pool[i]);
  }
}

// All full refinements of `sigma` as rank vectors (element -> 0-based rank).
std::vector<std::vector<std::int32_t>> CollectRefinementRanks(
    const BucketOrder& sigma) {
  std::vector<std::vector<std::int32_t>> all;
  ForEachRefinementOrder(sigma, [&](const std::vector<ElementId>& order) {
    std::vector<std::int32_t> ranks(order.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      ranks[static_cast<std::size_t>(order[r])] = static_cast<std::int32_t>(r);
    }
    all.push_back(std::move(ranks));
  });
  return all;
}

std::int64_t KendallOnRanks(const std::vector<std::int32_t>& a,
                            const std::vector<std::int32_t>& b) {
  std::int64_t discordant = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if ((a[i] < a[j]) != (b[i] < b[j])) ++discordant;
    }
  }
  return discordant;
}

std::int64_t FootruleOnRanks(const std::vector<std::int32_t>& a,
                             const std::vector<std::int32_t>& b) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += std::abs(static_cast<std::int64_t>(a[i]) -
                      static_cast<std::int64_t>(b[i]));
  }
  return total;
}

std::int64_t SaturatingFactorialProduct(const BucketOrder& sigma,
                                        std::int64_t acc) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (std::size_t b = 0; b < sigma.num_buckets(); ++b) {
    for (std::int64_t f = 2;
         f <= static_cast<std::int64_t>(sigma.bucket(b).size()); ++f) {
      if (acc > kMax / f) return kMax;
      acc *= f;
    }
  }
  return acc;
}

}  // namespace

std::int64_t KendallTau(const Permutation& sigma, const Permutation& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  std::int64_t discordant = 0;
  for (std::size_t i = 0; i < sigma.n(); ++i) {
    for (std::size_t j = i + 1; j < sigma.n(); ++j) {
      const ElementId a = static_cast<ElementId>(i);
      const ElementId b = static_cast<ElementId>(j);
      if (sigma.Ahead(a, b) != tau.Ahead(a, b)) ++discordant;
    }
  }
  return discordant;
}

std::int64_t Footrule(const Permutation& sigma, const Permutation& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  std::int64_t total = 0;
  for (std::size_t e = 0; e < sigma.n(); ++e) {
    const ElementId id = static_cast<ElementId>(e);
    total += std::abs(static_cast<std::int64_t>(sigma.Rank(id)) -
                      static_cast<std::int64_t>(tau.Rank(id)));
  }
  return total;
}

std::vector<std::int64_t> TwicePositions(const BucketOrder& sigma) {
  const std::size_t n = sigma.n();
  std::vector<std::int64_t> twice_pos(n);
  for (std::size_t e = 0; e < n; ++e) {
    const ElementId id = static_cast<ElementId>(e);
    std::int64_t ahead = 0;
    std::int64_t tied = 0;
    for (std::size_t o = 0; o < n; ++o) {
      if (o == e) continue;
      const ElementId other = static_cast<ElementId>(o);
      if (sigma.Ahead(other, id)) ++ahead;
      if (sigma.Tied(other, id)) ++tied;
    }
    // pos = |ahead| + (|bucket|+1)/2 with |bucket| = tied + 1, doubled.
    twice_pos[e] = 2 * ahead + tied + 2;
  }
  return twice_pos;
}

std::int64_t TwiceFprof(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::vector<std::int64_t> ps = TwicePositions(sigma);
  const std::vector<std::int64_t> pt = TwicePositions(tau);
  std::int64_t total = 0;
  for (std::size_t e = 0; e < ps.size(); ++e) {
    total += std::abs(ps[e] - pt[e]);
  }
  return total;
}

PairCounts ClassifyPairs(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  PairCounts counts;
  for (std::size_t i = 0; i < sigma.n(); ++i) {
    for (std::size_t j = i + 1; j < sigma.n(); ++j) {
      const ElementId a = static_cast<ElementId>(i);
      const ElementId b = static_cast<ElementId>(j);
      const bool tied_s = sigma.Tied(a, b);
      const bool tied_t = tau.Tied(a, b);
      if (tied_s && tied_t) {
        ++counts.tied_both;
      } else if (tied_s) {
        ++counts.tied_sigma_only;
      } else if (tied_t) {
        ++counts.tied_tau_only;
      } else if (sigma.Ahead(a, b) == tau.Ahead(a, b)) {
        ++counts.concordant;
      } else {
        ++counts.discordant;
      }
    }
  }
  return counts;
}

std::int64_t TwiceKprof(const BucketOrder& sigma, const BucketOrder& tau) {
  const PairCounts c = ClassifyPairs(sigma, tau);
  return 2 * c.discordant + c.tied_sigma_only + c.tied_tau_only;
}

double KendallP(const BucketOrder& sigma, const BucketOrder& tau, double p) {
  RANKTIES_DCHECK(p >= 0.0 && p <= 1.0);
  const PairCounts c = ClassifyPairs(sigma, tau);
  // Same final expression as the optimized KendallPFromCounts, so equal
  // integer classes give bit-identical doubles.
  return static_cast<double>(c.discordant) +
         p * static_cast<double>(c.tied_sigma_only + c.tied_tau_only);
}

void ForEachRefinementOrder(
    const BucketOrder& sigma,
    const std::function<void(const std::vector<ElementId>&)>& visit) {
  std::vector<ElementId> prefix;
  prefix.reserve(sigma.n());
  NextBucket(sigma, 0, prefix, visit);
}

std::int64_t RefinementPairCount(const BucketOrder& sigma,
                                 const BucketOrder& tau) {
  return SaturatingFactorialProduct(tau,
                                    SaturatingFactorialProduct(sigma, 1));
}

RefinementMetrics ComputeRefinementMetrics(const BucketOrder& sigma,
                                           const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::vector<std::vector<std::int32_t>> xs =
      CollectRefinementRanks(sigma);
  const std::vector<std::vector<std::int32_t>> ys =
      CollectRefinementRanks(tau);
  // The literal Hausdorff max-min in both directions: each refinement's
  // distance to the nearest refinement of the other side, per metric. Both
  // distances are symmetric, so one pass fills the row (x) and column (y)
  // minima alike.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> x_min_k(xs.size(), kMax);
  std::vector<std::int64_t> x_min_f(xs.size(), kMax);
  std::vector<std::int64_t> y_min_k(ys.size(), kMax);
  std::vector<std::int64_t> y_min_f(ys.size(), kMax);
  std::int64_t kendall_sum = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < ys.size(); ++j) {
      const std::int64_t k = KendallOnRanks(xs[i], ys[j]);
      const std::int64_t f = FootruleOnRanks(xs[i], ys[j]);
      kendall_sum += k;
      x_min_k[i] = std::min(x_min_k[i], k);
      y_min_k[j] = std::min(y_min_k[j], k);
      x_min_f[i] = std::min(x_min_f[i], f);
      y_min_f[j] = std::min(y_min_f[j], f);
    }
  }
  const auto max_min = [](const std::vector<std::int64_t>& from_x,
                          const std::vector<std::int64_t>& from_y) {
    return std::max(*std::max_element(from_x.begin(), from_x.end()),
                    *std::max_element(from_y.begin(), from_y.end()));
  };
  RefinementMetrics metrics;
  metrics.khaus = max_min(x_min_k, y_min_k);
  metrics.twice_fhaus = 2 * max_min(x_min_f, y_min_f);
  metrics.kavg = static_cast<double>(kendall_sum) /
                 static_cast<double>(xs.size() * ys.size());
  return metrics;
}

std::int64_t KHausdorff(const BucketOrder& sigma, const BucketOrder& tau) {
  return ComputeRefinementMetrics(sigma, tau).khaus;
}

std::int64_t TwiceFHausdorff(const BucketOrder& sigma,
                             const BucketOrder& tau) {
  return ComputeRefinementMetrics(sigma, tau).twice_fhaus;
}

double Kavg(const BucketOrder& sigma, const BucketOrder& tau) {
  return ComputeRefinementMetrics(sigma, tau).kavg;
}

double ComputeMetric(MetricKind kind, const BucketOrder& sigma,
                     const BucketOrder& tau) {
  switch (kind) {
    case MetricKind::kKprof:
      return static_cast<double>(TwiceKprof(sigma, tau)) / 2.0;
    case MetricKind::kFprof:
      return static_cast<double>(TwiceFprof(sigma, tau)) / 2.0;
    case MetricKind::kKHaus:
      return static_cast<double>(KHausdorff(sigma, tau));
    case MetricKind::kFHaus:
      return static_cast<double>(TwiceFHausdorff(sigma, tau)) / 2.0;
  }
  return 0.0;
}

}  // namespace rankties::ref
