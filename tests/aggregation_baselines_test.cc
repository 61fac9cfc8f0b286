#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/best_input.h"
#include "core/kendall.h"
#include "core/borda.h"
#include "core/cost.h"
#include "core/footrule.h"
#include "core/footrule_matching.h"
#include "core/kemeny.h"
#include "core/local_kemenization.h"
#include "core/markov_chain.h"
#include "core/median_rank.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

std::vector<BucketOrder> RandomInputs(std::size_t n, std::size_t m, Rng& rng) {
  std::vector<BucketOrder> inputs;
  for (std::size_t i = 0; i < m; ++i) {
    inputs.push_back(RandomBucketOrder(n, rng));
  }
  return inputs;
}

TEST(HungarianTest, KnownMatrix) {
  // Classic 3x3: optimal assignment cost 5 (0->1, 1->0, 2->2).
  auto result = MinCostAssignment({{4, 1, 3}, {2, 0, 5}, {3, 2, 2}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_cost, 5);
  EXPECT_EQ(result->column_of_row[0], 1u);
  EXPECT_EQ(result->column_of_row[1], 0u);
  EXPECT_EQ(result->column_of_row[2], 2u);
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 6));
    std::vector<std::vector<std::int64_t>> cost(n,
                                                std::vector<std::int64_t>(n));
    for (auto& row : cost) {
      for (auto& c : row) c = rng.UniformInt(0, 50);
    }
    auto result = MinCostAssignment(cost);
    ASSERT_TRUE(result.ok());
    // Brute force over all permutations.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    do {
      std::int64_t total = 0;
      for (std::size_t r = 0; r < n; ++r) total += cost[r][perm[r]];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(result->total_cost, best) << "n=" << n;
  }
}

TEST(HungarianTest, RejectsBadMatrices) {
  EXPECT_FALSE(MinCostAssignment({}).ok());
  EXPECT_FALSE(MinCostAssignment({{1, 2}, {3}}).ok());
}

TEST(FootruleOptimalTest, IsTrulyOptimalOnSmallDomains) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inputs = RandomInputs(5, 3, rng);
    auto optimal = FootruleOptimalFull(inputs);
    ASSERT_TRUE(optimal.ok());
    const std::int64_t claimed = optimal->twice_total_cost;
    EXPECT_EQ(claimed, TwiceTotalFprof(
                           BucketOrder::FromPermutation(optimal->ranking),
                           inputs));
    // No full ranking does better.
    ref::ForEachRefinementOrder(
        BucketOrder::SingleBucket(5), [&](const std::vector<ElementId>& o) {
          const Permutation p = Permutation::FromOrder(o).value();
          EXPECT_GE(TwiceTotalFprof(BucketOrder::FromPermutation(p), inputs),
                    claimed);
        });
  }
}

TEST(FootruleOptimalTest, MedianIsWithinFactorTwoOfIt) {
  // Theorem 11 yardstick: for full-ranking inputs the median aggregate is
  // within 2x the Hungarian-exact footrule optimum.
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<BucketOrder> inputs;
    for (int i = 0; i < 5; ++i) {
      inputs.push_back(
          BucketOrder::FromPermutation(Permutation::Random(8, rng)));
    }
    auto median = MedianAggregateFull(inputs, MedianPolicy::kLower);
    auto optimal = FootruleOptimalFull(inputs);
    ASSERT_TRUE(median.ok() && optimal.ok());
    EXPECT_LE(
        TwiceTotalFprof(BucketOrder::FromPermutation(*median), inputs),
        2 * optimal->twice_total_cost);
  }
}

TEST(KemenyTest, MatchesBruteForceMinimum) {
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const auto inputs = RandomInputs(5, 3, rng);
    auto kemeny = ExactKemeny(inputs, 0.5);
    ASSERT_TRUE(kemeny.ok());
    double best = std::numeric_limits<double>::infinity();
    ref::ForEachRefinementOrder(
        BucketOrder::SingleBucket(5), [&](const std::vector<ElementId>& o) {
          const Permutation p = Permutation::FromOrder(o).value();
          best = std::min(
              best,
              TotalKendallP(BucketOrder::FromPermutation(p), inputs, 0.5));
        });
    EXPECT_DOUBLE_EQ(kemeny->total_cost, best);
    EXPECT_DOUBLE_EQ(
        TotalKendallP(BucketOrder::FromPermutation(kemeny->ranking), inputs,
                      0.5),
        best);
  }
}

TEST(KemenyTest, OptimumIsInvariantInPForFullOutputs) {
  // For a full-ranking output every input-tied pair costs p whichever way
  // it is ordered, so the p-term is constant and the argmin cannot depend
  // on p. (The objective VALUE does shift by p * #tied pairs * ... .)
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const auto inputs = RandomInputs(6, 5, rng);
    const Permutation base = ExactKemeny(inputs, 0.5)->ranking;
    for (double p : {0.0, 1.0}) {
      auto result = ExactKemeny(inputs, p);
      ASSERT_TRUE(result.ok());
      // Argmin may be non-unique; compare objective values at p = 0.5.
      EXPECT_DOUBLE_EQ(
          TotalKendallP(BucketOrder::FromPermutation(result->ranking),
                        inputs, 0.5),
          TotalKendallP(BucketOrder::FromPermutation(base), inputs, 0.5));
    }
  }
}

TEST(KemenyTest, Validation) {
  EXPECT_FALSE(ExactKemeny({}, 0.5).ok());
  std::vector<BucketOrder> big(2, BucketOrder::SingleBucket(25));
  EXPECT_FALSE(ExactKemeny(big, 0.5).ok());
  std::vector<BucketOrder> ok_inputs(2, BucketOrder::SingleBucket(4));
  EXPECT_FALSE(ExactKemeny(ok_inputs, 0.3).ok());
  EXPECT_TRUE(ExactKemeny(ok_inputs, 1.0).ok());
}

TEST(BordaTest, AgreesWithMeanRankOnSimpleCase) {
  // Voter 1: 0 < 1 < 2; Voter 2: 0 < 2 < 1. Mean ranks: 0 best, then tie.
  auto v1 = BucketOrder::FromBuckets(3, {{0}, {1}, {2}});
  auto v2 = BucketOrder::FromBuckets(3, {{0}, {2}, {1}});
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto induced = BordaInducedOrder({*v1, *v2});
  ASSERT_TRUE(induced.ok());
  EXPECT_EQ(induced->ToString(), "[0 | 1 2]");
  auto full = BordaAggregateFull({*v1, *v2});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->At(0), 0);
}

TEST(BestInputTest, PicksTheMedoid) {
  Rng rng(5);
  const auto inputs = RandomInputs(8, 5, rng);
  auto best = BestInputAggregate(inputs, MetricKind::kFprof);
  ASSERT_TRUE(best.ok());
  for (const BucketOrder& candidate : inputs) {
    EXPECT_GE(TotalDistance(MetricKind::kFprof, candidate, inputs),
              best->total_cost - 1e-9);
  }
}

TEST(Mc4Test, UnanimousInputsReproduceTheOrder) {
  const Permutation truth(6);
  std::vector<BucketOrder> inputs(4, BucketOrder::FromPermutation(truth));
  auto result = Mc4Aggregate(inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, truth);
}

TEST(Mc4Test, RecoversMallowsCenterApproximately) {
  Rng rng(6);
  const Permutation center(9);
  std::vector<BucketOrder> inputs;
  for (int i = 0; i < 15; ++i) {
    inputs.push_back(
        BucketOrder::FromPermutation(MallowsSample(center, 0.3, rng)));
  }
  auto result = Mc4Aggregate(inputs);
  ASSERT_TRUE(result.ok());
  // Strong concentration: the recovered order is close to the center.
  EXPECT_LE(KendallTau(*result, center), 6);
}

TEST(LocalKemenizationTest, NeverHurtsAndFixesAdjacentFlaws) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inputs = RandomInputs(7, 4, rng);
    const Permutation start = Permutation::Random(7, rng);
    const Permutation polished = LocalKemenization(start, inputs, 0.5);
    EXPECT_LE(TotalKendallP(BucketOrder::FromPermutation(polished), inputs,
                            0.5),
              TotalKendallP(BucketOrder::FromPermutation(start), inputs,
                            0.5) +
                  1e-9);
    // No adjacent swap of the polished ranking improves the objective.
    const std::vector<std::vector<std::int64_t>> w =
        PairwisePreferenceCostsTwice(inputs, 0.5);
    for (std::size_t r = 0; r + 1 < 7; ++r) {
      const std::size_t a = static_cast<std::size_t>(polished.At(
          static_cast<ElementId>(r)));
      const std::size_t b = static_cast<std::size_t>(polished.At(
          static_cast<ElementId>(r + 1)));
      EXPECT_LE(w[a][b], w[b][a]);
    }
  }
}

TEST(CostTest, ApproxRatioEdgeCases) {
  EXPECT_DOUBLE_EQ(ApproxRatio(0, 0), 1.0);
  EXPECT_TRUE(std::isinf(ApproxRatio(3, 0)));
  EXPECT_DOUBLE_EQ(ApproxRatio(3, 2), 1.5);
}

}  // namespace
}  // namespace rankties
