#include "rank/refinement.h"

#include <gtest/gtest.h>

#include "gen/random_orders.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Must(StatusOr<BucketOrder> order) {
  EXPECT_TRUE(order.ok()) << order.status();
  return std::move(order).value();
}

TEST(RefinementTest, IsRefinementOfBasics) {
  const BucketOrder coarse =
      Must(BucketOrder::FromBuckets(4, {{0, 1}, {2, 3}}));
  const BucketOrder fine =
      Must(BucketOrder::FromBuckets(4, {{0}, {1}, {2, 3}}));
  const BucketOrder other = Must(BucketOrder::FromBuckets(4, {{0, 2}, {1, 3}}));
  EXPECT_TRUE(IsRefinementOf(fine, coarse));
  EXPECT_FALSE(IsRefinementOf(coarse, fine));
  EXPECT_FALSE(IsRefinementOf(other, coarse));
  // Everything refines the single bucket; everything refines itself.
  EXPECT_TRUE(IsRefinementOf(fine, BucketOrder::SingleBucket(4)));
  EXPECT_TRUE(IsRefinementOf(fine, fine));
  EXPECT_TRUE(IsRefinementOf(coarse, coarse));
}

TEST(RefinementTest, IsRefinementRejectsOrderFlip) {
  // Same partition granularity but flipped bucket order.
  const BucketOrder a = Must(BucketOrder::FromBuckets(4, {{0, 1}, {2, 3}}));
  const BucketOrder flipped =
      Must(BucketOrder::FromBuckets(4, {{2, 3}, {0, 1}}));
  EXPECT_FALSE(IsRefinementOf(flipped, a));
}

TEST(RefinementTest, TauRefineBreaksTiesByTau) {
  // sigma ties {0,1,2}; tau orders 2 < 0 ~ 1; tau*sigma = [2 | 0 1 | 3].
  const BucketOrder sigma = Must(BucketOrder::FromBuckets(4, {{0, 1, 2}, {3}}));
  const BucketOrder tau = Must(BucketOrder::FromBuckets(4, {{2}, {0, 1, 3}}));
  const BucketOrder refined = TauRefine(tau, sigma);
  EXPECT_EQ(refined.ToString(), "[2 | 0 1 | 3]");
  EXPECT_TRUE(IsRefinementOf(refined, sigma));
}

TEST(RefinementTest, TauRefineDefinitionProperties) {
  // Paper §2: if sigma(i)=sigma(j) and tau(i)<tau(j) then refined(i) <
  // refined(j); if tied in both, still tied; sigma's strict orders kept.
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(9, rng);
    const BucketOrder tau = RandomBucketOrder(9, rng);
    const BucketOrder refined = TauRefine(tau, sigma);
    EXPECT_TRUE(IsRefinementOf(refined, sigma));
    for (ElementId i = 0; i < 9; ++i) {
      for (ElementId j = 0; j < 9; ++j) {
        if (i == j) continue;
        if (sigma.Tied(i, j) && tau.Ahead(i, j)) {
          EXPECT_TRUE(refined.Ahead(i, j));
        }
        if (sigma.Tied(i, j) && tau.Tied(i, j)) {
          EXPECT_TRUE(refined.Tied(i, j));
        }
        if (sigma.Ahead(i, j)) {
          EXPECT_TRUE(refined.Ahead(i, j));
        }
      }
    }
  }
}

TEST(RefinementTest, TauRefineIsAssociative) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder rho = RandomBucketOrder(8, rng);
    const BucketOrder tau = RandomBucketOrder(8, rng);
    const BucketOrder sigma = RandomBucketOrder(8, rng);
    // rho*(tau*sigma) == (rho*tau)*sigma (paper §2: * is associative).
    EXPECT_EQ(TauRefine(rho, TauRefine(tau, sigma)),
              TauRefine(TauRefine(rho, tau), sigma));
  }
}

TEST(RefinementTest, TauRefineWithFullTauIsFull) {
  Rng rng(23);
  const BucketOrder sigma = RandomBucketOrder(8, rng);
  const Permutation tau = Permutation::Random(8, rng);
  const Permutation refined = TauRefineFull(tau, sigma);
  // Same result through the generic path.
  const BucketOrder generic =
      TauRefine(BucketOrder::FromPermutation(tau), sigma);
  EXPECT_TRUE(generic.IsFull());
  EXPECT_EQ(BucketOrder::FromPermutation(refined), generic);
}

TEST(RefinementTest, RandomFullRefinementIsRefinement) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomBucketOrder(10, rng);
    const Permutation p = RandomFullRefinement(order, rng);
    EXPECT_TRUE(IsRefinementOf(BucketOrder::FromPermutation(p), order));
  }
}

}  // namespace
}  // namespace rankties
