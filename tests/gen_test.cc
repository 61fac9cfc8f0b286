#include <gtest/gtest.h>

#include <numeric>

#include "core/kendall.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "gen/score_dist.h"
#include "gen/zipf.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(RandomTypeTest, SumsToN) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 40));
    const std::vector<std::size_t> type = RandomType(n, rng);
    std::size_t total = 0;
    for (std::size_t t : type) {
      EXPECT_GT(t, 0u);
      total += t;
    }
    EXPECT_EQ(total, n);
  }
}

TEST(RandomBucketOrderTest, ValidAndVaried) {
  Rng rng(2);
  const BucketOrder a = RandomBucketOrder(30, rng);
  const BucketOrder b = RandomBucketOrder(30, rng);
  EXPECT_EQ(a.n(), 30u);
  EXPECT_FALSE(a == b);
}

TEST(RandomBucketOrderTest, EmptyDomain) {
  Rng rng(4);
  EXPECT_TRUE(RandomType(0, rng).empty());
  const BucketOrder order = RandomBucketOrder(0, rng);
  EXPECT_EQ(order.n(), 0u);
  EXPECT_EQ(order.num_buckets(), 0u);
}

TEST(RandomBucketOrderWithBucketsTest, ExactBucketCount) {
  Rng rng(3);
  for (std::size_t t : {1u, 2u, 5u, 10u}) {
    const BucketOrder order = RandomBucketOrderWithBuckets(10, t, rng);
    EXPECT_EQ(order.num_buckets(), t);
  }
}

TEST(RandomTopKTest, Shape) {
  Rng rng(4);
  const BucketOrder order = RandomTopK(12, 4, rng);
  EXPECT_TRUE(order.IsTopK(4));
}

TEST(RandomFewValuedTest, ProducesHeavyTies) {
  Rng rng(5);
  double total_buckets = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomFewValued(100, 10.0, rng);
    total_buckets += static_cast<double>(order.num_buckets());
  }
  // Mean bucket size ~10 => ~10 buckets on average; allow slack.
  EXPECT_LT(total_buckets / 20, 25.0);
  EXPECT_GT(total_buckets / 20, 4.0);
}

TEST(MallowsTest, PhiControlsConcentration) {
  Rng rng(6);
  const Permutation center(20);
  auto mean_distance = [&](double phi) {
    double total = 0;
    for (int i = 0; i < 40; ++i) {
      total += static_cast<double>(
          KendallTau(MallowsSample(center, phi, rng), center));
    }
    return total / 40;
  };
  const double tight = mean_distance(0.2);
  const double loose = mean_distance(0.9);
  EXPECT_LT(tight, loose);
  // Uniform case phi=1: expected distance = n(n-1)/4 = 95.
  const double uniform = mean_distance(1.0);
  EXPECT_NEAR(uniform, 95.0, 20.0);
}

TEST(MallowsTest, PhiNearZeroReproducesCenter) {
  Rng rng(7);
  const Permutation center = Permutation::Random(15, rng);
  std::int64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    total += KendallTau(MallowsSample(center, 0.01, rng), center);
  }
  // Expected displacement per sample is ~ n * phi = 0.15; a handful of
  // inversions across ten samples is already very unlikely.
  EXPECT_LE(total, 5);
}

TEST(QuantizedMallowsTest, BucketCountAndCorrelation) {
  Rng rng(8);
  const Permutation center(30);
  const BucketOrder order = QuantizedMallows(center, 0.3, 5, rng);
  EXPECT_EQ(order.num_buckets(), 5u);
  EXPECT_EQ(order.n(), 30u);
  // Strong correlation with the center: the center's best element should
  // land in an early bucket.
  EXPECT_LE(order.BucketOf(center.At(0)), 1);
}

TEST(PlackettLuceTest, WeightsDriveExpectedPositions) {
  Rng rng(42);
  // Element 0 has weight 50, the rest weight 1: it should land first in
  // the overwhelming majority of samples.
  std::vector<double> weights(10, 1.0);
  weights[0] = 50.0;
  int firsts = 0;
  for (int s = 0; s < 200; ++s) {
    if (PlackettLuceSample(weights, rng).At(0) == 0) ++firsts;
  }
  EXPECT_GT(firsts, 140);
}

TEST(PlackettLuceTest, UniformWeightsGiveUniformFirstElement) {
  Rng rng(43);
  std::vector<double> weights(5, 1.0);
  std::vector<int> firsts(5, 0);
  for (int s = 0; s < 2000; ++s) {
    ++firsts[static_cast<std::size_t>(PlackettLuceSample(weights, rng).At(0))];
  }
  for (int count : firsts) {
    EXPECT_GT(count, 300);  // expected 400 each
    EXPECT_LT(count, 500);
  }
}

TEST(PlackettLuceTest, ProducesValidPermutations) {
  Rng rng(44);
  const std::vector<double> weights = {3.0, 1.0, 0.5, 8.0};
  for (int s = 0; s < 20; ++s) {
    const Permutation p = PlackettLuceSample(weights, rng);
    EXPECT_EQ(p.n(), 4u);
  }
}

TEST(ZipfTest, HeadIsHeavy) {
  Rng rng(9);
  const ZipfSampler zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 5000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], 800);
  int total = std::accumulate(counts.begin(), counts.end(), 0);
  EXPECT_EQ(total, 5000);
}

TEST(ZipfTest, SingleValue) {
  Rng rng(10);
  const ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ParetoTest, SeededDeterminism) {
  const ParetoSampler pareto(1.0, 1.5);
  Rng a(77);
  Rng b(77);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(pareto.Sample(a), pareto.Sample(b));
  }
}

TEST(ParetoTest, SupportAndHeavyTail) {
  Rng rng(78);
  const ParetoSampler pareto(2.0, 1.5);
  int above_double = 0;
  for (int i = 0; i < 4000; ++i) {
    const double x = pareto.Sample(rng);
    EXPECT_GE(x, 2.0);  // Support is [scale, inf).
    if (x > 4.0) ++above_double;
  }
  // P(X > 2*scale) = 2^-shape ~ 0.354 for shape 1.5; the tail is fat.
  EXPECT_GT(above_double, 1000);
  EXPECT_LT(above_double, 1900);
}

TEST(SkewedNormalTest, SeededDeterminism) {
  const SkewedNormalSampler skew(0.0, 1.0, 4.0);
  Rng a(79);
  Rng b(79);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(skew.Sample(a), skew.Sample(b));
  }
}

TEST(SkewedNormalTest, ShapeSkewsTheMass) {
  // With shape 4 most mass sits above the location; with shape -4, below.
  Rng rng(80);
  const SkewedNormalSampler right(0.0, 1.0, 4.0);
  const SkewedNormalSampler left(0.0, 1.0, -4.0);
  int right_above = 0;
  int left_above = 0;
  for (int i = 0; i < 4000; ++i) {
    if (right.Sample(rng) > 0.0) ++right_above;
    if (left.Sample(rng) > 0.0) ++left_above;
  }
  EXPECT_GT(right_above, 3400);  // P(Z > 0) ~ 0.922 at shape 4.
  EXPECT_LT(left_above, 600);
}

TEST(SkewedNormalTest, ZeroShapeIsSymmetric) {
  Rng rng(81);
  const SkewedNormalSampler normal(0.0, 1.0, 0.0);
  int above = 0;
  for (int i = 0; i < 4000; ++i) {
    if (normal.Sample(rng) > 0.0) ++above;
  }
  EXPECT_GT(above, 1800);
  EXPECT_LT(above, 2200);
}

TEST(SkewedScoreOrderTest, ValidDeterministicAndTied) {
  SkewedOrderConfig config;
  config.quantization = 16;
  Rng a(82);
  Rng b(82);
  StatusOr<BucketOrder> first = SkewedScoreOrder(200, config, a);
  StatusOr<BucketOrder> second = SkewedScoreOrder(200, config, b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // Same seed, same order.
  EXPECT_TRUE(first->Validate().ok());
  // Quantization caps the bucket count, so a 200-element order has ties.
  EXPECT_LE(first->num_buckets(), 16u);
  EXPECT_GE(first->num_buckets(), 2u);
}

TEST(SkewedScoreOrderTest, NormalSkewedDistributionWorks) {
  SkewedOrderConfig config;
  config.distribution = ScoreDistribution::kNormalSkewed;
  config.quantization = 24;
  Rng rng(83);
  StatusOr<BucketOrder> order = SkewedScoreOrder(150, config, rng);
  ASSERT_TRUE(order.ok());
  EXPECT_TRUE(order->Validate().ok());
  EXPECT_LE(order->num_buckets(), 24u);
}

TEST(SkewedScoreOrderTest, RejectsBadConfigs) {
  Rng rng(84);
  EXPECT_FALSE(SkewedScoreOrder(0, SkewedOrderConfig{}, rng).ok());
  SkewedOrderConfig zero_quant;
  zero_quant.quantization = 0;
  EXPECT_FALSE(SkewedScoreOrder(10, zero_quant, rng).ok());
  SkewedOrderConfig bad_pareto;
  bad_pareto.pareto_shape = -1.0;
  EXPECT_FALSE(SkewedScoreOrder(10, bad_pareto, rng).ok());
  SkewedOrderConfig bad_skew;
  bad_skew.distribution = ScoreDistribution::kNormalSkewed;
  bad_skew.skew_scale = 0.0;
  EXPECT_FALSE(SkewedScoreOrder(10, bad_skew, rng).ok());
}

TEST(SkewedScoreCorpusTest, DeterministicCorpusOfValidOrders) {
  SkewedOrderConfig config;
  Rng a(85);
  Rng b(85);
  StatusOr<std::vector<BucketOrder>> first =
      SkewedScoreCorpus(6, 50, config, a);
  StatusOr<std::vector<BucketOrder>> second =
      SkewedScoreCorpus(6, 50, config, b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), 6u);
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*second)[i]);
    EXPECT_TRUE((*first)[i].Validate().ok());
  }
  EXPECT_FALSE(SkewedScoreCorpus(0, 50, config, a).ok());
}

}  // namespace
}  // namespace rankties
