#include "core/optimal_bucketing.h"

#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/footrule.h"
#include "core/median_rank.h"
#include "gen/random_orders.h"
#include "util/rng.h"

namespace rankties {
namespace {

std::vector<std::int64_t> RandomQuadScores(std::size_t n, Rng& rng,
                                           bool even_only) {
  std::vector<std::int64_t> scores(n);
  for (std::size_t e = 0; e < n; ++e) {
    scores[e] = rng.UniformInt(1, static_cast<std::int64_t>(2 * n));
    if (even_only) {
      scores[e] *= 2;
    }
  }
  return scores;
}

TEST(OptimalBucketingTest, SingleElement) {
  auto result = OptimalBucketing({4});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.num_buckets(), 1u);
  EXPECT_EQ(result->cost_quad, std::abs(4 - 4 * 1));
}

TEST(OptimalBucketingTest, AlreadyAPartialRankingHasZeroCost) {
  // If the scores are exactly the positions of some bucket order, f-dagger
  // is that bucket order with cost 0.
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const BucketOrder order = RandomBucketOrder(9, rng);
    std::vector<std::int64_t> quad(9);
    for (ElementId e = 0; e < 9; ++e) {
      quad[static_cast<std::size_t>(e)] = 2 * order.TwicePosition(e);
    }
    for (auto algo :
         {BucketingAlgorithm::kLinearSpace, BucketingAlgorithm::kQuadraticSpace,
          BucketingAlgorithm::kPrefixSum}) {
      auto result = OptimalBucketing(quad, algo);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->cost_quad, 0);
      EXPECT_EQ(result->order, order);
    }
  }
}

TEST(OptimalBucketingTest, LinearSpaceRejectsOddScores) {
  EXPECT_FALSE(
      OptimalBucketing({3, 5, 7}, BucketingAlgorithm::kLinearSpace).ok());
  // kAuto silently falls back.
  EXPECT_TRUE(OptimalBucketing({3, 5, 7}, BucketingAlgorithm::kAuto).ok());
}

class BucketingParityTest : public ::testing::TestWithParam<std::size_t> {};

// All three DP variants agree with each other and with brute force.
TEST_P(BucketingParityTest, VariantsMatchBruteForce) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  for (int trial = 0; trial < 15; ++trial) {
    const bool even_only = trial % 2 == 0;
    const std::vector<std::int64_t> scores =
        RandomQuadScores(n, rng, even_only);
    auto brute = OptimalBucketingBrute(scores);
    ASSERT_TRUE(brute.ok());
    for (auto algo : {BucketingAlgorithm::kQuadraticSpace,
                      BucketingAlgorithm::kPrefixSum}) {
      auto result = OptimalBucketing(scores, algo);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->cost_quad, brute->cost_quad)
          << "n=" << n << " trial=" << trial;
    }
    if (even_only) {
      auto linear =
          OptimalBucketing(scores, BucketingAlgorithm::kLinearSpace);
      ASSERT_TRUE(linear.ok());
      EXPECT_EQ(linear->cost_quad, brute->cost_quad);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BucketingParityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12));

TEST(OptimalBucketingTest, ReportedCostMatchesReconstructedOrder) {
  // The cost the DP reports equals 4 * L1(f-dagger, f) recomputed from the
  // returned bucket order.
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<std::int64_t> scores = RandomQuadScores(10, rng, true);
    auto result = OptimalBucketing(scores, BucketingAlgorithm::kAuto);
    ASSERT_TRUE(result.ok());
    std::int64_t recomputed = 0;
    for (ElementId e = 0; e < 10; ++e) {
      recomputed += std::abs(scores[static_cast<std::size_t>(e)] -
                             2 * result->order.TwicePosition(e));
    }
    EXPECT_EQ(recomputed, result->cost_quad);
  }
}

TEST(OptimalBucketingTest, ResultIsConsistentWithScores) {
  // f-dagger must be consistent with f: f(i) < f(j) never maps to
  // order(i) > order(j) (Lemma 27's consistency).
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<std::int64_t> scores = RandomQuadScores(9, rng, false);
    auto result = OptimalBucketing(scores, BucketingAlgorithm::kAuto);
    ASSERT_TRUE(result.ok());
    for (ElementId i = 0; i < 9; ++i) {
      for (ElementId j = 0; j < 9; ++j) {
        if (scores[static_cast<std::size_t>(i)] <
            scores[static_cast<std::size_t>(j)]) {
          EXPECT_FALSE(result->order.Ahead(j, i))
              << "inconsistent with scores";
        }
      }
    }
  }
}

// Theorem 10 end-to-end: f-dagger of the median scores beats (x2) every
// partial ranking on the total-L1 objective.
TEST(OptimalBucketingTest, Theorem10FactorTwoOverPartialRankings) {
  Rng rng(11);
  const std::size_t n = 6;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 5));
    std::vector<BucketOrder> inputs;
    for (std::size_t i = 0; i < m; ++i) {
      inputs.push_back(RandomBucketOrder(n, rng));
    }
    auto median = MedianRankScoresQuad(inputs, MedianPolicy::kLower);
    ASSERT_TRUE(median.ok());
    auto fdagger = OptimalBucketing(*median, BucketingAlgorithm::kAuto);
    ASSERT_TRUE(fdagger.ok());
    const std::int64_t ours = TwiceTotalFprof(fdagger->order, inputs);
    for (int g = 0; g < 60; ++g) {
      const BucketOrder tau = RandomBucketOrder(n, rng);
      EXPECT_LE(ours, 2 * TwiceTotalFprof(tau, inputs));
    }
  }
}

TEST(OptimalBucketingTest, EmptyInputRejected) {
  EXPECT_FALSE(OptimalBucketing({}).ok());
  EXPECT_FALSE(OptimalBucketingBrute({}).ok());
}

TEST(OptimalBucketingTest, BruteForceGuardsLargeN) {
  std::vector<std::int64_t> scores(25, 4);
  EXPECT_FALSE(OptimalBucketingBrute(scores).ok());
}

TEST(OptimalBucketingTest, BucketingCostQuadValidates) {
  EXPECT_FALSE(BucketingCostQuad({4, 8}, {1}).ok());
  EXPECT_FALSE(BucketingCostQuad({4, 8}, {0, 2}).ok());
  auto cost = BucketingCostQuad({4, 8}, {2});
  ASSERT_TRUE(cost.ok());
  // Both in one bucket at pos 1.5 (quad 6): |4-6| + |8-6| = 4.
  EXPECT_EQ(*cost, 4);
}

TEST(OptimalBucketingTest, ClusteredScoresMergeIntoBuckets) {
  // Scores form two tight clusters; the optimal consolidation is two
  // buckets.
  // Elements 0..2 near position 1.33, elements 3..5 near position 5.
  const std::vector<std::int64_t> scores = {8, 8, 8, 20, 20, 20};
  auto result = OptimalBucketing(scores, BucketingAlgorithm::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.num_buckets(), 2u);
  const std::span<const ElementId> front = result->order.bucket(0);
  EXPECT_EQ(std::vector<ElementId>(front.begin(), front.end()),
            (std::vector<ElementId>{0, 1, 2}));
}

}  // namespace
}  // namespace rankties
