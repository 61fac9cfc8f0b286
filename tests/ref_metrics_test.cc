// Unit tests for the oracle layer itself (src/ref): hand-computed examples
// plus structural properties of the self-contained refinement enumeration.
// The heavy cross-checking of core against ref lives in tests/fuzz/.

#include "ref/ref_metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/kendall.h"
#include "core/profile_metrics.h"
#include "rank/refinement.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Order(std::size_t n,
                  std::vector<std::vector<ElementId>> buckets) {
  auto result = BucketOrder::FromBuckets(n, std::move(buckets));
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(RefMetricsTest, HandComputedPaperExample) {
  // sigma = [0 1 | 2], tau = [2 | 0 1]: pair {0,1} tied in both; pairs
  // {0,2} and {1,2} are discordant.
  const BucketOrder sigma = Order(3, {{0, 1}, {2}});
  const BucketOrder tau = Order(3, {{2}, {0, 1}});
  EXPECT_EQ(ref::TwiceKprof(sigma, tau), 4);  // 2 discordant pairs
  EXPECT_EQ(ref::KendallP(sigma, tau, 0.0), 2.0);
  EXPECT_EQ(ref::KendallP(sigma, tau, 1.0), 2.0);  // no one-sided ties
  // Positions: sigma = (1.5, 1.5, 3), tau = (2.5, 2.5, 1) -> L1 = 4.
  EXPECT_EQ(ref::TwiceFprof(sigma, tau), 8);
  EXPECT_EQ(ref::KHausdorff(sigma, tau), 2);
  EXPECT_EQ(ref::TwiceFHausdorff(sigma, tau), 8);
}

TEST(RefMetricsTest, OneSidedTiePenalty) {
  const BucketOrder tied = BucketOrder::SingleBucket(2);
  const BucketOrder split = Order(2, {{0}, {1}});
  EXPECT_EQ(ref::TwiceKprof(tied, split), 1);  // one pair, tied in one side
  EXPECT_EQ(ref::KendallP(tied, split, 0.25), 0.25);
  EXPECT_EQ(ref::KHausdorff(tied, split), 1);
}

TEST(RefMetricsTest, EnumerationVisitsEveryRefinementOnce) {
  const BucketOrder sigma = Order(5, {{0, 1, 2}, {3, 4}});
  std::set<std::vector<ElementId>> seen;
  std::int64_t visits = 0;
  ref::ForEachRefinementOrder(sigma, [&](const std::vector<ElementId>& ord) {
    ++visits;
    seen.insert(ord);
    const auto full =
        BucketOrder::FromPermutation(*Permutation::FromOrder(ord));
    EXPECT_TRUE(IsRefinementOf(full, sigma));
  });
  EXPECT_EQ(visits, 3 * 2 * 1 * 2 * 1);  // 3! * 2!
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), visits);
  EXPECT_EQ(visits * visits, ref::RefinementPairCount(sigma, sigma));
}

TEST(RefMetricsTest, RefinementPairCountSaturates) {
  const BucketOrder big = BucketOrder::SingleBucket(64);
  EXPECT_EQ(ref::RefinementPairCount(big, big),
            std::numeric_limits<std::int64_t>::max());
  const BucketOrder tiny = Order(2, {{0, 1}});
  EXPECT_EQ(ref::RefinementPairCount(tiny, tiny), 4);
}

TEST(RefMetricsTest, AgreesWithCoreOnRandomSmallOrders) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(2, 6));
    std::vector<double> scores(n);
    for (double& s : scores) s = static_cast<double>(rng.UniformInt(0, 3));
    const BucketOrder sigma = BucketOrder::FromScores(scores);
    for (double& s : scores) s = static_cast<double>(rng.UniformInt(0, 3));
    const BucketOrder tau = BucketOrder::FromScores(scores);
    EXPECT_EQ(ref::TwiceKprof(sigma, tau), TwiceKprof(sigma, tau));
    EXPECT_EQ(ref::TwiceFprof(sigma, tau), TwiceFprof(sigma, tau));
    EXPECT_EQ(ref::KHausdorff(sigma, tau), KHausdorff(sigma, tau));
    EXPECT_EQ(ref::TwiceFHausdorff(sigma, tau), TwiceFHausdorff(sigma, tau));
  }
}

TEST(RefMetricsTest, FullRankingDistancesMatchClassical) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const Permutation a = Permutation::Random(12, rng);
    const Permutation b = Permutation::Random(12, rng);
    EXPECT_EQ(ref::KendallTau(a, b), KendallTau(a, b));
    EXPECT_EQ(ref::Footrule(a, b), Footrule(a, b));
  }
}

TEST(RefMetricsTest, DefinitionalPositionsMatchBucketOrder) {
  const BucketOrder sigma = Order(6, {{2, 5}, {0}, {1, 3, 4}});
  const std::vector<std::int64_t> twice_pos = ref::TwicePositions(sigma);
  for (std::size_t e = 0; e < sigma.n(); ++e) {
    EXPECT_EQ(twice_pos[e], sigma.TwicePosition(static_cast<ElementId>(e)))
        << "element " << e;
  }
}

}  // namespace
}  // namespace rankties
