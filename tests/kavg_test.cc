#include <gtest/gtest.h>

#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(KavgTest, ClosedFormMatchesBruteForce) {
  Rng rng(1);
  for (std::size_t n : {2u, 3u, 4u, 5u, 6u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const BucketOrder sigma = RandomBucketOrder(n, rng);
      const BucketOrder tau = RandomBucketOrder(n, rng);
      EXPECT_DOUBLE_EQ(Kavg(sigma, tau), ref::Kavg(sigma, tau))
          << sigma.ToString() << " vs " << tau.ToString();
    }
  }
}

TEST(KavgTest, SampledEstimatorConverges) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const BucketOrder sigma = RandomFewValued(30, 6.0, rng);
    const BucketOrder tau = RandomFewValued(30, 6.0, rng);
    const double exact = Kavg(sigma, tau);
    const double estimate = KavgSampled(sigma, tau, 3000, rng);
    // Pair count is 435; Monte Carlo error should be well under 2%.
    EXPECT_NEAR(estimate, exact, 0.02 * exact + 1.0);
  }
}

TEST(KavgTest, NotADistanceMeasureOnGeneralPartialRankings) {
  // A.3's observation, now directly testable: Kavg(sigma, sigma) > 0 when
  // sigma has a bucket of size >= 2.
  const BucketOrder tied = BucketOrder::SingleBucket(4);
  EXPECT_GT(Kavg(tied, tied), 0.0);
  EXPECT_DOUBLE_EQ(Kavg(tied, tied), 6.0 / 2.0);  // C(4,2) tied-both pairs
  // But on full rankings it degenerates to Kendall (a genuine metric).
  Rng rng(3);
  const Permutation a = Permutation::Random(8, rng);
  const BucketOrder fa = BucketOrder::FromPermutation(a);
  EXPECT_DOUBLE_EQ(Kavg(fa, fa), 0.0);
}

TEST(KavgTest, RelatesToKprofByTiedBothHalf) {
  // Kavg = Kprof + tied_both / 2, by the two closed forms.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(10, rng);
    const BucketOrder tau = RandomBucketOrder(10, rng);
    const PairCounts c = ComputePairCounts(sigma, tau);
    EXPECT_DOUBLE_EQ(Kavg(sigma, tau),
                     Kprof(sigma, tau) +
                         static_cast<double>(c.tied_both) / 2.0);
  }
}

}  // namespace
}  // namespace rankties
