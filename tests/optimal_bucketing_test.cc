#include "core/optimal_bucketing.h"

#include <gtest/gtest.h>

#include <limits>

#include "allocation_hook.h"
#include "core/cost.h"
#include "core/footrule.h"
#include "core/median_rank.h"
#include "gen/random_orders.h"
#include "ref/fdagger.h"
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
    auto result = OptimalBucketing(quad);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->cost_quad, 0);
    EXPECT_EQ(result->order, order);
  }
}

class BucketingParityTest : public ::testing::TestWithParam<std::size_t> {};

// The DP agrees with brute force on odd and even scores, and with the
// paper's Figure 1 on even ones.
TEST_P(BucketingParityTest, VariantsMatchBruteForce) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  for (int trial = 0; trial < 15; ++trial) {
    const bool even_only = trial % 2 == 0;
    const std::vector<std::int64_t> scores =
        RandomQuadScores(n, rng, even_only);
    auto brute = ref::FDaggerCostBrute(scores);
    ASSERT_TRUE(brute.ok());
    auto result = OptimalBucketing(scores);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->cost_quad, *brute)
        << "n=" << n << " trial=" << trial;
    if (even_only) {
      EXPECT_EQ(result->cost_quad, ref::FDaggerCostFigure1(scores));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BucketingParityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12));

// Figure 1 at sizes the brute force cannot reach, on random even scores
// and on lower-median scores; the returned order must carry the cost.
TEST(OptimalBucketingTest, MatchesFigure1BeyondBruteForce) {
  Rng rng(13);
  for (const std::size_t n : {30, 100, 400}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::int64_t> scores = RandomQuadScores(n, rng, true);
      if (trial % 2 == 1) {
        std::vector<BucketOrder> inputs;
        for (int i = 0; i < 4; ++i) {
          inputs.push_back(RandomFewValued(n, 4.0, rng));
        }
        scores = MedianRankScoresQuad(inputs, MedianPolicy::kLower).value();
      }
      auto result = OptimalBucketing(scores);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->cost_quad, ref::FDaggerCostFigure1(scores))
          << "n=" << n << " trial=" << trial;
      EXPECT_EQ(ref::BucketingCostQuad(scores, result->order.Type()).value(),
                result->cost_quad);
    }
  }
}

// Odd quad scores (2f not integral, which kAverage medians produce) run in
// the same O(n)-space DP: no allocation is quadratic in n.
TEST(OptimalBucketingTest, OddScoresStayInLinearSpace) {
  const std::size_t n = 2048;
  Rng rng(17);
  std::vector<std::int64_t> scores(n);
  for (std::int64_t& score : scores) {
    score = 2 * rng.UniformInt(0, static_cast<std::int64_t>(2 * n)) + 1;
  }
  g_largest_allocation = 0;
  g_count_allocations = true;
  auto result = OptimalBucketing(scores);
  g_count_allocations = false;
  ASSERT_TRUE(result.ok());
  EXPECT_LE(g_largest_allocation, 16 * (n + 1));
  EXPECT_EQ(ref::BucketingCostQuad(scores, result->order.Type()).value(),
            result->cost_quad);
}

// Scores whose costs could overflow int64 are refused, never computed; the
// largest accepted magnitude still gives an exact cost.
TEST(OptimalBucketingTest, ScoresThatCouldOverflowAreRejected) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> overflowing[] = {{kMin}, {0, kMax}};
  for (const std::vector<std::int64_t>& scores : overflowing) {
    auto result = OptimalBucketing(scores);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(ref::BucketingCostQuad(scores, {scores.size()}).ok());
    EXPECT_FALSE(ref::FDaggerCostBrute(scores).ok());
  }
  // n = 2: the limit is (INT64_MAX / 4) / 2 - 4 * 2 - 4.
  const std::int64_t limit = kMax / 4 / 2 - 12;
  auto edge = OptimalBucketing({-limit, limit});
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->cost_quad, (limit + 4) + (limit - 8));
  EXPECT_FALSE(OptimalBucketing({-limit - 1, limit}).ok());
  EXPECT_FALSE(OptimalBucketing({-limit, limit + 1}).ok());
}

TEST(OptimalBucketingTest, ReportedCostMatchesReconstructedOrder) {
  // The cost the DP reports equals 4 * L1(f-dagger, f) recomputed from the
  // returned bucket order.
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<std::int64_t> scores = RandomQuadScores(10, rng, true);
    auto result = OptimalBucketing(scores);
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
    auto result = OptimalBucketing(scores);
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
    auto fdagger = OptimalBucketing(*median);
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
  EXPECT_FALSE(ref::FDaggerCostBrute({}).ok());
}

TEST(OptimalBucketingTest, BruteForceGuardsLargeN) {
  std::vector<std::int64_t> scores(25, 4);
  EXPECT_FALSE(ref::FDaggerCostBrute(scores).ok());
}

TEST(OptimalBucketingTest, BucketingCostQuadValidates) {
  EXPECT_FALSE(ref::BucketingCostQuad({4, 8}, {1}).ok());
  EXPECT_FALSE(ref::BucketingCostQuad({4, 8}, {0, 2}).ok());
  auto cost = ref::BucketingCostQuad({4, 8}, {2});
  ASSERT_TRUE(cost.ok());
  // Both in one bucket at pos 1.5 (quad 6): |4-6| + |8-6| = 4.
  EXPECT_EQ(*cost, 4);
}

TEST(OptimalBucketingTest, ClusteredScoresMergeIntoBuckets) {
  // Scores form two tight clusters; the optimal consolidation is two
  // buckets.
  // Elements 0..2 near position 1.33, elements 3..5 near position 5.
  const std::vector<std::int64_t> scores = {8, 8, 8, 20, 20, 20};
  auto result = OptimalBucketing(scores);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.num_buckets(), 2u);
  const std::span<const ElementId> front = result->order.bucket(0);
  EXPECT_EQ(std::vector<ElementId>(front.begin(), front.end()),
            (std::vector<ElementId>{0, 1, 2}));
}

}  // namespace
}  // namespace rankties
