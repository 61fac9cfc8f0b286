#include "core/hausdorff.h"

#include <algorithm>
#include <limits>

#include "core/footrule.h"
#include "core/kendall.h"
#include "core/prepared.h"
#include "rank/refinement.h"

namespace rankties {

std::int64_t KHausdorff(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return KHausdorff(sigma, tau, scratch);
}

std::int64_t KHausdorffFromCounts(const PairCounts& counts) {
  return counts.discordant +
         std::max(counts.tied_sigma_only, counts.tied_tau_only);
}

std::int64_t TwiceFHausdorff(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return TwiceFHausdorff(sigma, tau, scratch);
}

double FHausdorff(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return FHausdorff(sigma, tau, scratch);
}

namespace {

/// Generic brute-force Hausdorff: max over refinements on one side of the
/// min distance to refinements of the other, then the max of both
/// directions. `Dist` maps two Permutations to int64.
template <typename Dist>
std::int64_t HausdorffBrute(const BucketOrder& sigma, const BucketOrder& tau,
                            Dist dist) {
  auto one_sided = [&](const BucketOrder& a, const BucketOrder& b) {
    std::int64_t max_min = 0;
    ForEachFullRefinement(a, [&](const Permutation& pa) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      ForEachFullRefinement(b, [&](const Permutation& pb) {
        best = std::min(best, dist(pa, pb));
        return true;
      });
      max_min = std::max(max_min, best);
      return true;
    });
    return max_min;
  };
  return std::max(one_sided(sigma, tau), one_sided(tau, sigma));
}

}  // namespace

std::int64_t KHausdorffBrute(const BucketOrder& sigma, const BucketOrder& tau) {
  return HausdorffBrute(sigma, tau, [](const Permutation& a,
                                       const Permutation& b) {
    return KendallTauNaive(a, b);
  });
}

std::int64_t FHausdorffBrute(const BucketOrder& sigma, const BucketOrder& tau) {
  return HausdorffBrute(sigma, tau,
                        [](const Permutation& a, const Permutation& b) {
                          return Footrule(a, b);
                        });
}

}  // namespace rankties
