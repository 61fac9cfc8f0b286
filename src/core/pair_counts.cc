#include "core/pair_counts.h"

#include "core/prepared.h"
#include "util/contracts.h"

namespace rankties {

PairCounts ComputePairCounts(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return ComputePairCounts(sigma, tau, scratch);
}

PairCounts ComputePairCountsNaive(const BucketOrder& sigma,
                                  const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  const std::size_t n = sigma.n();
  PairCounts counts;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
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

}  // namespace rankties
