#include "core/hausdorff.h"

#include <gtest/gtest.h>

#include "core/footrule.h"
#include "core/kendall.h"
#include "core/pair_counts.h"
#include "gen/random_orders.h"
#include "rank/refinement.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Must(StatusOr<BucketOrder> order) {
  EXPECT_TRUE(order.ok()) << order.status();
  return std::move(order).value();
}

TEST(HausdorffTest, FullRankingsDegenerateToBaseMetrics) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Permutation a = Permutation::Random(9, rng);
    const Permutation b = Permutation::Random(9, rng);
    const BucketOrder oa = BucketOrder::FromPermutation(a);
    const BucketOrder ob = BucketOrder::FromPermutation(b);
    EXPECT_EQ(KHausdorff(oa, ob), KendallTau(a, b));
    EXPECT_EQ(TwiceFHausdorff(oa, ob), 2 * Footrule(a, b));
  }
}

TEST(HausdorffTest, HandExampleSingleBucketVsFull) {
  // sigma ties everything; tau = identity full ranking on 3 elements.
  // Worst refinement of sigma is the reversal of tau: KHaus = 3 (all pairs
  // in S), FHaus = 4 (the reversal's footrule).
  const BucketOrder sigma = BucketOrder::SingleBucket(3);
  const BucketOrder tau = BucketOrder::FromPermutation(Permutation(3));
  EXPECT_EQ(KHausdorff(sigma, tau), 3);
  EXPECT_EQ(ref::KHausdorff(sigma, tau), 3);
  EXPECT_EQ(ref::TwiceFHausdorff(sigma, tau), 8);
  EXPECT_EQ(TwiceFHausdorff(sigma, tau), 8);
}

TEST(HausdorffTest, Proposition6MatchesTheorem5) {
  Rng rng(2);
  for (std::size_t n : {2u, 4u, 7u, 12u, 30u}) {
    for (int trial = 0; trial < 30; ++trial) {
      const BucketOrder sigma = RandomBucketOrder(n, rng);
      const BucketOrder tau = RandomBucketOrder(n, rng);
      EXPECT_EQ(KHausdorff(sigma, tau), ref::KHausdorffTheorem5(sigma, tau))
          << "n=" << n;
    }
  }
}

// The central correctness check of Section 4: the Theorem 5 construction
// equals the exponential max-min definition.
class HausdorffBruteParityTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(HausdorffBruteParityTest, Theorem5MatchesBruteForce) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  for (int trial = 0; trial < 25; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    if (ref::RefinementPairCount(sigma, tau) > 50000) {
      continue;  // keep brute force cheap
    }
    EXPECT_EQ(KHausdorff(sigma, tau), ref::KHausdorff(sigma, tau))
        << sigma.ToString() << " vs " << tau.ToString();
    EXPECT_EQ(ref::TwiceFHausdorffTheorem5(sigma, tau),
              ref::TwiceFHausdorff(sigma, tau))
        << sigma.ToString() << " vs " << tau.ToString();
    EXPECT_EQ(TwiceFHausdorff(sigma, tau), ref::TwiceFHausdorff(sigma, tau))
        << sigma.ToString() << " vs " << tau.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HausdorffBruteParityTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(HausdorffTest, TopKListsAgainstBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const BucketOrder a = RandomTopK(6, 2, rng);
    const BucketOrder b = RandomTopK(6, 3, rng);
    EXPECT_EQ(KHausdorff(a, b), ref::KHausdorff(a, b));
    EXPECT_EQ(TwiceFHausdorff(a, b), ref::TwiceFHausdorff(a, b));
  }
}

TEST(HausdorffTest, MetricAxioms) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const BucketOrder x = RandomBucketOrder(8, rng);
    const BucketOrder y = RandomBucketOrder(8, rng);
    const BucketOrder z = RandomBucketOrder(8, rng);
    EXPECT_EQ(KHausdorff(x, x), 0);
    EXPECT_EQ(TwiceFHausdorff(x, x), 0);
    EXPECT_EQ(KHausdorff(x, y), KHausdorff(y, x));
    EXPECT_EQ(TwiceFHausdorff(x, y), TwiceFHausdorff(y, x));
    if (!(x == y)) {
      EXPECT_GT(KHausdorff(x, y), 0);
      EXPECT_GT(TwiceFHausdorff(x, y), 0);
    }
    EXPECT_LE(KHausdorff(x, z), KHausdorff(x, y) + KHausdorff(y, z));
    EXPECT_LE(TwiceFHausdorff(x, z),
              TwiceFHausdorff(x, y) + TwiceFHausdorff(y, z));
  }
}

TEST(HausdorffTest, Proposition6CountsDirectly) {
  // KHaus = |U| + max(|S|, |T|) on the hand example of pair_counts_test.
  const BucketOrder sigma = Must(BucketOrder::FromBuckets(4, {{0, 1}, {2, 3}}));
  const BucketOrder tau = Must(BucketOrder::FromBuckets(4, {{0}, {1, 2}, {3}}));
  // S = 2, T = 1, U = 0 -> KHaus = 2.
  EXPECT_EQ(KHausdorff(sigma, tau), 2);
}

TEST(HausdorffTest, HausdorffAtLeastAnyMinOverRefinements) {
  // By definition dHaus >= min over refinements for each fixed side; sanity
  // against random refinements.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(7, rng);
    const BucketOrder tau = RandomBucketOrder(7, rng);
    const std::int64_t khaus = KHausdorff(sigma, tau);
    // For every refinement pair, the min over tau refinements of K is <=
    // KHaus; we spot check: the *closest* pair cannot exceed KHaus.
    const Permutation s = RandomFullRefinement(sigma, rng);
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    ref::ForEachRefinementOrder(tau, [&](const std::vector<ElementId>& t) {
      best = std::min(best, KendallTau(s, Permutation::FromOrder(t).value()));
    });
    EXPECT_LE(best, khaus);
  }
}

}  // namespace
}  // namespace rankties
