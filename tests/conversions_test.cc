#include "rank/conversions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/footrule.h"
#include "core/pair_counts.h"
#include "core/hausdorff.h"
#include "core/metric_registry.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "rank/refinement.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(QuantizeScoresTest, BandsAndValidation) {
  auto order = QuantizeScores({0.5, 9.9, 10.1, 25.0}, 10.0);
  ASSERT_TRUE(order.ok());
  // Bands: 0, 0, 1, 2.
  EXPECT_EQ(order->ToString(), "[0 1 | 2 | 3]");
  EXPECT_FALSE(QuantizeScores({1.0}, 0.0).ok());
  EXPECT_FALSE(QuantizeScores({1.0}, -3.0).ok());
  // A band past the int64 range would make the key cast UB.
  EXPECT_EQ(QuantizeScores({1e300}, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizeScoresTest, NonFiniteScoresSortLast) {
  auto order = QuantizeScores(
      {1.0, std::numeric_limits<double>::infinity(), 2.0}, 1.0);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->BucketOf(1), static_cast<BucketIndex>(
                                    order->num_buckets() - 1));
}

TEST(RankByDistanceTest, ExactAndBanded) {
  auto exact = RankByDistance({1.0, 5.0, 9.0}, 5.0, 0.0);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->ToString(), "[1 | 0 2]");
  auto banded = RankByDistance({1.0, 5.0, 9.0}, 5.0, 10.0);
  ASSERT_TRUE(banded.ok());
  EXPECT_EQ(banded->num_buckets(), 1u);
  EXPECT_FALSE(RankByDistance({1.0}, 0.0, -1.0).ok());
}

TEST(FromScoresDescendingTest, LargerIsBetter) {
  const BucketOrder order = FromScoresDescending({1.0, 9.0, 9.0, 4.0});
  EXPECT_EQ(order.ToString(), "[1 2 | 3 | 0]");
}

TEST(MergeBucketsTest, MergesRunsAndValidates) {
  auto fine = BucketOrder::FromBuckets(5, {{0}, {1}, {2}, {3}, {4}});
  ASSERT_TRUE(fine.ok());
  auto merged = MergeBuckets(*fine, {2, 1, 2});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->ToString(), "[0 1 | 2 | 3 4]");
  EXPECT_FALSE(MergeBuckets(*fine, {2, 2}).ok());     // doesn't cover
  EXPECT_FALSE(MergeBuckets(*fine, {0, 5}).ok());     // zero run
  // Merging is a coarsening: the original refines the result.
  EXPECT_TRUE(IsRefinementOf(*fine, *merged));
}

TEST(ConsecutiveBlocksTest, BuildsAndValidates) {
  auto blocks = ConsecutiveBlocks(6, {2, 1, 3});
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->ToString(), "[0 1 | 2 | 3 4 5]");
  EXPECT_FALSE(ConsecutiveBlocks(6, {2, 2}).ok());
  EXPECT_FALSE(ConsecutiveBlocks(6, {0, 6}).ok());
}

TEST(RelabelTest, MetricsAreRelabelInvariant) {
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 12;
    const BucketOrder x = RandomBucketOrder(n, rng);
    const BucketOrder y = RandomBucketOrder(n, rng);
    const Permutation relabel = Permutation::Random(n, rng);
    const BucketOrder xr = Relabel(x, relabel);
    const BucketOrder yr = Relabel(y, relabel);
    for (MetricKind kind : AllMetricKinds()) {
      ASSERT_EQ(ComputeMetric(kind, x, y), ComputeMetric(kind, xr, yr))
          << MetricName(kind);
    }
  }
}

TEST(RelabelTest, IdentityAndComposition) {
  Rng rng(2);
  const BucketOrder x = RandomBucketOrder(8, rng);
  EXPECT_EQ(Relabel(x, Permutation(8)), x);
  const Permutation p = Permutation::Random(8, rng);
  // Relabel by p then by p's inverse returns the original.
  EXPECT_EQ(Relabel(Relabel(x, p), p.Inverse()), x);
}

TEST(ConcatenateTest, StructureAndAdditivity) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const BucketOrder a1 = RandomBucketOrder(6, rng);
    const BucketOrder a2 = RandomBucketOrder(6, rng);
    const BucketOrder b1 = RandomBucketOrder(5, rng);
    const BucketOrder b2 = RandomBucketOrder(5, rng);
    const BucketOrder c1 = Concatenate(a1, b1);
    const BucketOrder c2 = Concatenate(a2, b2);
    EXPECT_EQ(c1.n(), 11u);
    EXPECT_EQ(c1.num_buckets(), a1.num_buckets() + b1.num_buckets());
    // Cross pairs are concordant (block A before block B in both) and
    // positions shift uniformly, so the PROFILE metrics are exactly
    // additive across concatenation.
    EXPECT_EQ(TwiceKprof(c1, c2), TwiceKprof(a1, a2) + TwiceKprof(b1, b2));
    EXPECT_EQ(TwiceFprof(c1, c2), TwiceFprof(a1, a2) + TwiceFprof(b1, b2));
    // The HAUSDORFF metrics are only subadditive: KHaus = |U| + max(|S|,|T|)
    // and max does not distribute over the blockwise sums. Prop. 6 gives
    // the exact concatenated value from the pair counts.
    EXPECT_LE(KHausdorff(c1, c2),
              KHausdorff(a1, a2) + KHausdorff(b1, b2));
    EXPECT_LE(TwiceFHausdorff(c1, c2),
              TwiceFHausdorff(a1, a2) + TwiceFHausdorff(b1, b2));
    const PairCounts ca = ComputePairCounts(a1, a2);
    const PairCounts cb = ComputePairCounts(b1, b2);
    EXPECT_EQ(KHausdorff(c1, c2),
              ca.discordant + cb.discordant +
                  std::max(ca.tied_sigma_only + cb.tied_sigma_only,
                           ca.tied_tau_only + cb.tied_tau_only));
    // And Hausdorff still dominates its profile twin on the concatenation.
    EXPECT_GE(2 * KHausdorff(c1, c2), TwiceKprof(c1, c2));
  }
}

TEST(ConcatenateTest, EmptySides) {
  const BucketOrder a = BucketOrder::SingleBucket(3);
  const BucketOrder empty;
  EXPECT_EQ(Concatenate(a, empty), a);
  EXPECT_EQ(Concatenate(empty, a), a);
}

}  // namespace
}  // namespace rankties
