#include "core/pair_counts.h"

#include "core/prepared.h"

namespace rankties {

PairCounts ComputePairCounts(const BucketOrder& sigma, const BucketOrder& tau) {
  PairScratch scratch;
  return ComputePairCounts(sigma, tau, scratch);
}

}  // namespace rankties
