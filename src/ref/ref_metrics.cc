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

// The literal Hausdorff max-min over two explicit refinement sets.
template <typename Dist>
std::int64_t HausdorffOnSets(const std::vector<std::vector<std::int32_t>>& xs,
                             const std::vector<std::vector<std::int32_t>>& ys,
                             Dist dist) {
  auto directed = [&](const std::vector<std::vector<std::int32_t>>& from,
                      const std::vector<std::vector<std::int32_t>>& to) {
    std::int64_t max_min = 0;
    for (const auto& x : from) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (const auto& y : to) best = std::min(best, dist(x, y));
      max_min = std::max(max_min, best);
    }
    return max_min;
  };
  return std::max(directed(xs, ys), directed(ys, xs));
}

// Tallies of the definitional O(n^2) pair loop (paper §3.1).
struct PairTally {
  std::int64_t discordant = 0;
  std::int64_t tied_in_exactly_one = 0;
};

PairTally TallyPairs(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  PairTally tally;
  for (std::size_t i = 0; i < sigma.n(); ++i) {
    for (std::size_t j = i + 1; j < sigma.n(); ++j) {
      const ElementId a = static_cast<ElementId>(i);
      const ElementId b = static_cast<ElementId>(j);
      const bool tied_s = sigma.Tied(a, b);
      const bool tied_t = tau.Tied(a, b);
      if (tied_s != tied_t) {
        ++tally.tied_in_exactly_one;
      } else if (!tied_s && sigma.Ahead(a, b) != tau.Ahead(a, b)) {
        ++tally.discordant;
      }
    }
  }
  return tally;
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

std::int64_t TwiceKprof(const BucketOrder& sigma, const BucketOrder& tau) {
  const PairTally tally = TallyPairs(sigma, tau);
  return 2 * tally.discordant + tally.tied_in_exactly_one;
}

double KendallP(const BucketOrder& sigma, const BucketOrder& tau, double p) {
  RANKTIES_DCHECK(p >= 0.0 && p <= 1.0);
  const PairTally tally = TallyPairs(sigma, tau);
  // Same final expression as the optimized KendallPFromCounts, so equal
  // integer tallies give bit-identical doubles.
  return static_cast<double>(tally.discordant) +
         p * static_cast<double>(tally.tied_in_exactly_one);
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

std::int64_t KHausdorff(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  return HausdorffOnSets(CollectRefinementRanks(sigma),
                         CollectRefinementRanks(tau), KendallOnRanks);
}

std::int64_t TwiceFHausdorff(const BucketOrder& sigma,
                             const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  return 2 * HausdorffOnSets(CollectRefinementRanks(sigma),
                             CollectRefinementRanks(tau), FootruleOnRanks);
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
