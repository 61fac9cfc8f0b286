#include "core/refinement_extremes.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/kendall.h"
#include "gen/random_orders.h"
#include "rank/refinement.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

// Lemma 3: sigma*tau minimizes both F and K over all full refinements of
// tau, verified against exhaustive enumeration.
TEST(RefinementExtremesTest, Lemma3NearestRefinementIsOptimal) {
  Rng rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 6;
    const Permutation sigma = Permutation::Random(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    const Permutation nearest = NearestFullRefinement(sigma, tau);
    EXPECT_TRUE(IsRefinementOf(BucketOrder::FromPermutation(nearest), tau));
    std::int64_t best_f = std::numeric_limits<std::int64_t>::max();
    std::int64_t best_k = std::numeric_limits<std::int64_t>::max();
    ref::ForEachRefinementOrder(tau, [&](const std::vector<ElementId>& ord) {
      const Permutation t = Permutation::FromOrder(ord).value();
      best_f = std::min(best_f, Footrule(sigma, t));
      best_k = std::min(best_k, ref::KendallTau(sigma, t));
    });
    EXPECT_EQ(Footrule(sigma, nearest), best_f);
    EXPECT_EQ(KendallTau(sigma, nearest), best_k);
    EXPECT_EQ(MinFootruleToRefinements(sigma, tau), best_f);
    EXPECT_EQ(MinKendallToRefinements(sigma, tau), best_k);
  }
}

// Lemma 4 composed: the witness pair attains the one-sided Hausdorff
// distance, verified against exhaustive max-min.
TEST(RefinementExtremesTest, OneSidedWitnessMatchesBruteForce) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5;
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    std::int64_t brute_f = 0, brute_k = 0;
    ref::ForEachRefinementOrder(sigma, [&](const std::vector<ElementId>& so) {
      const Permutation s = Permutation::FromOrder(so).value();
      std::int64_t best_f = std::numeric_limits<std::int64_t>::max();
      std::int64_t best_k = std::numeric_limits<std::int64_t>::max();
      ref::ForEachRefinementOrder(tau, [&](const std::vector<ElementId>& to) {
        const Permutation t = Permutation::FromOrder(to).value();
        best_f = std::min(best_f, Footrule(s, t));
        best_k = std::min(best_k, ref::KendallTau(s, t));
      });
      brute_f = std::max(brute_f, best_f);
      brute_k = std::max(brute_k, best_k);
    });
    EXPECT_EQ(OneSidedFHausdorff(sigma, tau), brute_f);
    EXPECT_EQ(OneSidedKHausdorff(sigma, tau), brute_k);
  }
}

TEST(RefinementExtremesTest, WitnessesAreGenuineRefinements) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(9, rng);
    const BucketOrder tau = RandomBucketOrder(9, rng);
    const RefinementWitness w = OneSidedHausdorffWitness(sigma, tau);
    EXPECT_TRUE(
        IsRefinementOf(BucketOrder::FromPermutation(w.farthest_sigma), sigma));
    EXPECT_TRUE(
        IsRefinementOf(BucketOrder::FromPermutation(w.nearest_tau), tau));
  }
}

// The Hausdorff metric is the max of the two one-sided distances — ties
// the new API back to Theorem 5.
TEST(RefinementExtremesTest, HausdorffIsMaxOfOneSided) {
  Rng rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(12, rng);
    const BucketOrder tau = RandomBucketOrder(12, rng);
    EXPECT_EQ(TwiceFHausdorff(sigma, tau),
              2 * std::max(OneSidedFHausdorff(sigma, tau),
                           OneSidedFHausdorff(tau, sigma)));
    EXPECT_EQ(KHausdorff(sigma, tau),
              std::max(OneSidedKHausdorff(sigma, tau),
                       OneSidedKHausdorff(tau, sigma)));
  }
}

TEST(RefinementExtremesTest, FullInputsCollapse) {
  // When both orders are full, every quantity degenerates to the base
  // metric between them.
  Rng rng(5);
  const Permutation a = Permutation::Random(8, rng);
  const Permutation b = Permutation::Random(8, rng);
  const BucketOrder oa = BucketOrder::FromPermutation(a);
  const BucketOrder ob = BucketOrder::FromPermutation(b);
  EXPECT_EQ(MinFootruleToRefinements(a, ob), Footrule(a, b));
  EXPECT_EQ(OneSidedFHausdorff(oa, ob), Footrule(a, b));
  EXPECT_EQ(OneSidedKHausdorff(oa, ob), KendallTau(a, b));
}

}  // namespace
}  // namespace rankties
