// Differential "torture" sweep: every fast path in the library against its
// independent reference implementation, across many seeds and workload
// shapes in one place. Complements the focused unit tests with breadth.

#include <gtest/gtest.h>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/kendall.h"
#include "core/optimal_bucketing.h"
#include "core/pair_counts.h"
#include "core/profile_metrics.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "rank/refinement.h"
#include "ref/fdagger.h"
#include "ref/per_pair.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder SampleOrder(std::size_t n, int shape, Rng& rng) {
  switch (shape % 5) {
    case 0:
      return RandomBucketOrder(n, rng);
    case 1:
      return RandomFewValued(n, 3.0, rng);
    case 2:
      return RandomTopK(n, n / 3 + 1, rng);
    case 3:
      return BucketOrder::FromPermutation(Permutation::Random(n, rng));
    default:
      return QuantizedMallows(Permutation(n), 0.6,
                              std::max<std::size_t>(1, n / 3), rng);
  }
}

class TortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TortureTest, AllFastPathsMatchReferences) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const std::size_t n =
        static_cast<std::size_t>(rng.UniformInt(2, 24));
    const BucketOrder sigma = SampleOrder(n, round, rng);
    const BucketOrder tau = SampleOrder(n, round + 1, rng);

    // Pair classification.
    const PairCounts fast = ComputePairCounts(sigma, tau);
    ASSERT_EQ(fast, ref::ClassifyPairs(sigma, tau))
        << sigma.ToString() << " / " << tau.ToString();
    ASSERT_EQ(fast, ref::ComputePairCounts(sigma, tau));

    // Kendall-family identities.
    ASSERT_EQ(KHausdorff(sigma, tau), ref::KHausdorffTheorem5(sigma, tau));
    ASSERT_EQ(TwiceKprof(sigma, tau),
              TwiceKprofFromProfiles(KProfileQuarters(sigma),
                                     KProfileQuarters(tau)));
    ASSERT_DOUBLE_EQ(Kavg(sigma, tau),
                     Kprof(sigma, tau) +
                         static_cast<double>(fast.tied_both) / 2.0);

    // Theorem 7 inequalities on every sampled pair.
    const std::int64_t twice_kprof = TwiceKprof(sigma, tau);
    const std::int64_t twice_fprof = TwiceFprof(sigma, tau);
    const std::int64_t twice_khaus = 2 * KHausdorff(sigma, tau);
    const std::int64_t twice_fhaus = TwiceFHausdorff(sigma, tau);
    ASSERT_LE(twice_kprof, twice_fprof);
    ASSERT_LE(twice_fprof, 2 * twice_kprof);
    ASSERT_LE(twice_khaus, twice_fhaus);
    ASSERT_LE(twice_fhaus, 2 * twice_khaus);
    ASSERT_LE(twice_kprof, twice_khaus);
    ASSERT_LE(twice_khaus, 2 * twice_kprof);

    // Full-ranking Kendall.
    const Permutation a = Permutation::Random(n, rng);
    const Permutation b = Permutation::Random(n, rng);
    ASSERT_EQ(KendallTau(a, b), ref::KendallTau(a, b));

    // tau-refinement properties.
    const BucketOrder refined = TauRefine(tau, sigma);
    ASSERT_TRUE(IsRefinementOf(refined, sigma));

    // RestrictTo preserves relative order on a random subset.
    std::vector<ElementId> subset;
    for (std::size_t e = 0; e < n; ++e) {
      if (rng.Bernoulli(0.6)) subset.push_back(static_cast<ElementId>(e));
    }
    if (subset.size() >= 2) {
      auto restricted = sigma.RestrictTo(subset);
      ASSERT_TRUE(restricted.ok());
      for (std::size_t i = 0; i < subset.size(); ++i) {
        for (std::size_t j = 0; j < subset.size(); ++j) {
          ASSERT_EQ(restricted->Ahead(static_cast<ElementId>(i),
                                      static_cast<ElementId>(j)),
                    sigma.Ahead(subset[i], subset[j]));
        }
      }
    }
  }

  // The f-dagger DP against brute force and Figure 1 on fresh random even
  // scores (smaller n; brute force involved).
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 9));
    std::vector<std::int64_t> scores(n);
    for (auto& s : scores) {
      s = 2 * rng.UniformInt(1, 3 * static_cast<std::int64_t>(n));
    }
    auto brute = ref::FDaggerCostBrute(scores);
    ASSERT_TRUE(brute.ok());
    auto result = OptimalBucketing(scores);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->cost_quad, *brute);
    ASSERT_EQ(result->cost_quad, ref::FDaggerCostFigure1(scores));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace rankties
