#include "core/pair_counts.h"

#include <gtest/gtest.h>

#include <limits>

#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Must(StatusOr<BucketOrder> order) {
  EXPECT_TRUE(order.ok()) << order.status();
  return std::move(order).value();
}

TEST(PairCountsTest, HandComputedExample) {
  // sigma = [0 1 | 2 3], tau = [0 | 1 2 | 3].
  const BucketOrder sigma = Must(BucketOrder::FromBuckets(4, {{0, 1}, {2, 3}}));
  const BucketOrder tau = Must(BucketOrder::FromBuckets(4, {{0}, {1, 2}, {3}}));
  const PairCounts c = ComputePairCounts(sigma, tau);
  // Pairs: {0,1}: tied sigma, strict tau -> S. {0,2}: strict both, same
  // order -> C. {0,3}: C. {1,2}: strict sigma? sigma: 1 in bucket0, 2 in
  // bucket1 -> strict; tau ties -> T. {1,3}: strict both -> C. {2,3}: tied
  // sigma, strict tau -> S.
  EXPECT_EQ(c.concordant, 3);
  EXPECT_EQ(c.discordant, 0);
  EXPECT_EQ(c.tied_sigma_only, 2);
  EXPECT_EQ(c.tied_tau_only, 1);
  EXPECT_EQ(c.tied_both, 0);
  EXPECT_EQ(c.Total(), 6);
}

TEST(PairCountsTest, DiscordantPairs) {
  // sigma = [0 | 1], tau = [1 | 0]: one discordant pair.
  const BucketOrder sigma = Must(BucketOrder::FromBuckets(2, {{0}, {1}}));
  const BucketOrder tau = Must(BucketOrder::FromBuckets(2, {{1}, {0}}));
  const PairCounts c = ComputePairCounts(sigma, tau);
  EXPECT_EQ(c.discordant, 1);
  EXPECT_EQ(c.Total(), 1);
}

TEST(PairCountsTest, IdenticalOrdersAreAllConcordantOrTiedBoth) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(12, rng);
    const PairCounts c = ComputePairCounts(sigma, sigma);
    EXPECT_EQ(c.discordant, 0);
    EXPECT_EQ(c.tied_sigma_only, 0);
    EXPECT_EQ(c.tied_tau_only, 0);
    EXPECT_EQ(c.concordant + c.tied_both, 12 * 11 / 2);
  }
}

TEST(PairCountsTest, SymmetrySwapsTieClasses) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(10, rng);
    const BucketOrder tau = RandomBucketOrder(10, rng);
    const PairCounts ab = ComputePairCounts(sigma, tau);
    const PairCounts ba = ComputePairCounts(tau, sigma);
    EXPECT_EQ(ab.concordant, ba.concordant);
    EXPECT_EQ(ab.discordant, ba.discordant);
    EXPECT_EQ(ab.tied_sigma_only, ba.tied_tau_only);
    EXPECT_EQ(ab.tied_tau_only, ba.tied_sigma_only);
    EXPECT_EQ(ab.tied_both, ba.tied_both);
  }
}

TEST(PairCountsTest, SingleBucketVsFull) {
  Rng rng(4);
  const BucketOrder tied = BucketOrder::SingleBucket(7);
  const BucketOrder full =
      BucketOrder::FromPermutation(Permutation::Random(7, rng));
  const PairCounts c = ComputePairCounts(tied, full);
  EXPECT_EQ(c.tied_sigma_only, 21);
  EXPECT_EQ(c.concordant, 0);
  EXPECT_EQ(c.discordant, 0);
  EXPECT_EQ(c.tied_both, 0);
}

// Property sweep: fast engine == naive engine over many random shapes.
class PairCountsParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PairCountsParityTest, FastMatchesNaive) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 25; ++trial) {
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = RandomBucketOrder(n, rng);
    EXPECT_EQ(ComputePairCounts(sigma, tau), ref::ClassifyPairs(sigma, tau))
        << "n=" << n << " trial=" << trial;
  }
  // Also against structured shapes: top-k vs few-valued.
  for (int trial = 0; trial < 10; ++trial) {
    const BucketOrder sigma = RandomTopK(n, n / 2, rng);
    const BucketOrder tau = RandomFewValued(n, 3.0, rng);
    EXPECT_EQ(ComputePairCounts(sigma, tau), ref::ClassifyPairs(sigma, tau));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PairCountsParityTest,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 21, 34, 64));

TEST(PairCountsTest, TinyDomains) {
  const BucketOrder one = BucketOrder::SingleBucket(1);
  EXPECT_EQ(ComputePairCounts(one, one).Total(), 0);
}

TEST(PairCountsTest, TotalAtInt64BoundaryPasses) {
  PairCounts c;
  c.concordant = std::numeric_limits<std::int64_t>::max() - 10;
  c.discordant = 4;
  c.tied_sigma_only = 3;
  c.tied_tau_only = 2;
  c.tied_both = 1;
  EXPECT_EQ(c.Total(), std::numeric_limits<std::int64_t>::max());
}

TEST(PairCountsDeathTest, TotalAbortsInsteadOfWrapping) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PairCounts c;
  c.concordant = std::numeric_limits<std::int64_t>::max();
  c.discordant = 1;  // one pair past 2^63 - 1: the sum must not wrap
  EXPECT_DEATH(c.Total(), "integer overflow");
}

}  // namespace
}  // namespace rankties
