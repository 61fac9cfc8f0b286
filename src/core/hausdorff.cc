#include "core/hausdorff.h"

#include <algorithm>

#include "core/prepared.h"

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

}  // namespace rankties
