#include "core/median_rank.h"

#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/footrule.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "rank/refinement.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(MedianQuadTest, OddAndEvenPolicies) {
  // MedianQuad selects in place, so each call gets its own unsorted column.
  std::vector<std::int64_t> odd = {5, 1, 3};
  std::vector<std::int64_t> lower = {4, 2};
  std::vector<std::int64_t> upper = {4, 2};
  std::vector<std::int64_t> average = {4, 2};
  EXPECT_EQ(MedianQuad(odd, MedianPolicy::kLower), 6);        // 2 * 3
  EXPECT_EQ(MedianQuad(lower, MedianPolicy::kLower), 4);      // 2 * 2
  EXPECT_EQ(MedianQuad(upper, MedianPolicy::kUpper), 8);      // 2 * 4
  EXPECT_EQ(MedianQuad(average, MedianPolicy::kAverage), 6);  // 2 + 4
  // A column that MedianQuad has already permuted keeps its median.
  EXPECT_EQ(MedianQuad(odd, MedianPolicy::kLower), 6);
  EXPECT_EQ(MedianQuad(lower, MedianPolicy::kUpper), 8);
}

TEST(MedianRankTest, ScoresValidateInputs) {
  EXPECT_FALSE(MedianRankScoresQuad({}, MedianPolicy::kLower).ok());
  std::vector<BucketOrder> mixed = {BucketOrder::SingleBucket(3),
                                    BucketOrder::SingleBucket(4)};
  EXPECT_FALSE(MedianRankScoresQuad(mixed, MedianPolicy::kLower).ok());
}

TEST(MedianRankTest, MajorityAgreementWins) {
  // Two of three voters put element 2 first.
  auto v1 = BucketOrder::FromBuckets(3, {{2}, {0}, {1}});
  auto v2 = BucketOrder::FromBuckets(3, {{2}, {1}, {0}});
  auto v3 = BucketOrder::FromBuckets(3, {{0}, {1}, {2}});
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  auto full = MedianAggregateFull({*v1, *v2, *v3}, MedianPolicy::kLower);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->At(0), 2);
}

// Lemma 8: the median function minimizes sum_i L1(f, f_i) over all g.
TEST(MedianRankTest, Lemma8MedianMinimizesTotalL1) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 6;
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 7));
    std::vector<BucketOrder> inputs;
    for (std::size_t i = 0; i < m; ++i) {
      inputs.push_back(RandomBucketOrder(n, rng));
    }
    for (MedianPolicy policy :
         {MedianPolicy::kLower, MedianPolicy::kUpper, MedianPolicy::kAverage}) {
      auto median = MedianRankScoresQuad(inputs, policy);
      ASSERT_TRUE(median.ok());
      const std::int64_t median_cost = TotalL1ToInputsQuad(*median, inputs);
      // Random competitors never beat the median.
      for (int g = 0; g < 30; ++g) {
        std::vector<std::int64_t> competitor(n);
        for (std::size_t e = 0; e < n; ++e) {
          competitor[e] = 4 * rng.UniformInt(1, static_cast<std::int64_t>(n));
        }
        EXPECT_GE(TotalL1ToInputsQuad(competitor, inputs), median_cost);
      }
      // Nor does any input's own position vector.
      for (const BucketOrder& input : inputs) {
        std::vector<std::int64_t> quad(n);
        for (std::size_t e = 0; e < n; ++e) {
          quad[e] = 2 * input.TwicePosition(static_cast<ElementId>(e));
        }
        EXPECT_GE(TotalL1ToInputsQuad(quad, inputs), median_cost);
      }
    }
  }
}

// Theorem 9: the median top-k list is within factor 3 of the best top-k
// list under the sum-of-Fprof objective. Verified against exhaustive
// enumeration of all top-k lists on small domains.
TEST(MedianRankTest, Theorem9FactorThreeVsExhaustiveTopK) {
  Rng rng(2);
  const std::size_t n = 5;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 5));
    const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<BucketOrder> inputs;
    for (std::size_t i = 0; i < m; ++i) {
      inputs.push_back(RandomBucketOrder(n, rng));
    }
    auto ours = MedianAggregateTopK(inputs, k, MedianPolicy::kLower);
    ASSERT_TRUE(ours.ok());
    const std::int64_t our_cost = TwiceTotalFprof(*ours, inputs);

    // Exhaustive optimum over all top-k lists: every permutation prefix.
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    ref::ForEachRefinementOrder(
        BucketOrder::SingleBucket(n), [&](const std::vector<ElementId>& o) {
          const Permutation p = Permutation::FromOrder(o).value();
          best = std::min(
              best, TwiceTotalFprof(BucketOrder::TopKOf(p, k), inputs));
        });
    EXPECT_LE(our_cost, 3 * best)
        << "m=" << m << " k=" << k << " trial=" << trial;
  }
}

// Theorem 11: with full-ranking inputs, any refinement of the median's
// induced order is within factor 2 of every partial ranking (verified
// against exhaustive full rankings and random partial rankings).
TEST(MedianRankTest, Theorem11FactorTwoForFullInputs) {
  Rng rng(3);
  const std::size_t n = 5;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 6));
    std::vector<BucketOrder> inputs;
    for (std::size_t i = 0; i < m; ++i) {
      inputs.push_back(
          BucketOrder::FromPermutation(Permutation::Random(n, rng)));
    }
    auto ours = MedianAggregateFull(inputs, MedianPolicy::kLower);
    ASSERT_TRUE(ours.ok());
    const std::int64_t our_cost =
        TwiceTotalFprof(BucketOrder::FromPermutation(*ours), inputs);

    std::int64_t best_full = std::numeric_limits<std::int64_t>::max();
    ref::ForEachRefinementOrder(
        BucketOrder::SingleBucket(n), [&](const std::vector<ElementId>& o) {
          const Permutation p = Permutation::FromOrder(o).value();
          best_full = std::min(
              best_full,
              TwiceTotalFprof(BucketOrder::FromPermutation(p), inputs));
        });
    EXPECT_LE(our_cost, 2 * best_full) << trial;

    // Against arbitrary partial rankings too (Theorem 11's tau is any
    // partial ranking).
    for (int g = 0; g < 40; ++g) {
      const BucketOrder tau = RandomBucketOrder(n, rng);
      EXPECT_LE(our_cost, 2 * TwiceTotalFprof(tau, inputs));
    }
  }
}

TEST(MedianRankTest, MedianAggregateFullIsRefinementOfInduced) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<BucketOrder> inputs;
    for (int i = 0; i < 5; ++i) inputs.push_back(RandomBucketOrder(8, rng));
    auto induced = MedianInducedOrder(inputs, MedianPolicy::kAverage);
    auto full = MedianAggregateFull(inputs, MedianPolicy::kAverage);
    ASSERT_TRUE(induced.ok() && full.ok());
    EXPECT_TRUE(
        IsRefinementOf(BucketOrder::FromPermutation(*full), *induced));
  }
}

TEST(MedianRankTest, TopKValidation) {
  std::vector<BucketOrder> inputs = {BucketOrder::SingleBucket(4)};
  EXPECT_FALSE(MedianAggregateTopK(inputs, 9, MedianPolicy::kLower).ok());
  auto ok = MedianAggregateTopK(inputs, 2, MedianPolicy::kLower);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->IsTopK(2));
}

TEST(MedianRankTest, SingleVoterIsReproducedExactly) {
  // With one input, the median induced order is the input itself.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const BucketOrder input = RandomBucketOrder(7, rng);
    auto induced = MedianInducedOrder({input}, MedianPolicy::kLower);
    ASSERT_TRUE(induced.ok());
    EXPECT_EQ(*induced, input);
  }
}

}  // namespace
}  // namespace rankties
