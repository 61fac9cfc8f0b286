#include "core/profile_metrics.h"

#include <gtest/gtest.h>

#include "core/footrule.h"
#include "core/kendall.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Must(StatusOr<BucketOrder> order) {
  EXPECT_TRUE(order.ok()) << order.status();
  return std::move(order).value();
}

TEST(ProfileMetricsTest, PaperProposition13Example) {
  // Domain {a, b} = {0, 1}: tau1 = [0 | 1], tau2 = [0 1], tau3 = [1 | 0].
  const BucketOrder tau1 = Must(BucketOrder::FromBuckets(2, {{0}, {1}}));
  const BucketOrder tau2 = BucketOrder::SingleBucket(2);
  const BucketOrder tau3 = Must(BucketOrder::FromBuckets(2, {{1}, {0}}));

  // p = 0: K(0)(tau1,tau2) = 0 though tau1 != tau2 -> not a distance
  // measure, and the (near) triangle inequality fails badly (paper A.2).
  EXPECT_DOUBLE_EQ(KendallP(tau1, tau2, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(KendallP(tau2, tau3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(KendallP(tau1, tau3, 0.0), 1.0);

  // 0 < p < 1/2: triangle fails (1 > p + p).
  for (double p : {0.1, 0.25, 0.4, 0.49}) {
    EXPECT_GT(KendallP(tau1, tau3, p),
              KendallP(tau1, tau2, p) + KendallP(tau2, tau3, p));
  }
  // p >= 1/2: triangle holds on this triple.
  for (double p : {0.5, 0.75, 1.0}) {
    EXPECT_LE(KendallP(tau1, tau3, p),
              KendallP(tau1, tau2, p) + KendallP(tau2, tau3, p));
  }
}

// Proposition 13: K^(p) satisfies the triangle inequality pairwise-pointwise
// for p in [1/2, 1]. Random triples across p values.
class KendallPTriangleTest : public ::testing::TestWithParam<double> {};

TEST_P(KendallPTriangleTest, TriangleHoldsForMetricRange) {
  const double p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1000) + 7);
  for (int trial = 0; trial < 60; ++trial) {
    const BucketOrder x = RandomBucketOrder(9, rng);
    const BucketOrder y = RandomBucketOrder(9, rng);
    const BucketOrder z = RandomBucketOrder(9, rng);
    EXPECT_LE(KendallP(x, z, p),
              KendallP(x, y, p) + KendallP(y, z, p) + 1e-9)
        << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(MetricRange, KendallPTriangleTest,
                         ::testing::Values(0.5, 0.6, 0.75, 0.9, 1.0));

// Near-metric range: K^(p) <= K^(p') <= (p'/p) K^(p) for 0 < p < p' <= 1
// (paper A.2) — the equivalence that makes K^(p) a near metric.
TEST(ProfileMetricsTest, PenaltyFamilyEquivalence) {
  Rng rng(11);
  const double ps[] = {0.1, 0.3, 0.5, 0.8, 1.0};
  for (int trial = 0; trial < 30; ++trial) {
    const BucketOrder x = RandomBucketOrder(10, rng);
    const BucketOrder y = RandomBucketOrder(10, rng);
    for (double p : ps) {
      for (double q : ps) {
        if (p >= q) continue;
        const double dp = KendallP(x, y, p);
        const double dq = KendallP(x, y, q);
        EXPECT_LE(dp, dq + 1e-9);
        EXPECT_LE(dq, (q / p) * dp + 1e-9);
      }
    }
  }
}

TEST(ProfileMetricsTest, KprofIsHalfPenalty) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder x = RandomBucketOrder(8, rng);
    const BucketOrder y = RandomBucketOrder(8, rng);
    EXPECT_DOUBLE_EQ(Kprof(x, y), KendallP(x, y, 0.5));
    EXPECT_DOUBLE_EQ(Kprof(x, y),
                     static_cast<double>(TwiceKprof(x, y)) / 2.0);
  }
}

TEST(ProfileMetricsTest, KprofEqualsL1OfKProfiles) {
  // The defining property of §3.1: Kprof is the L1 distance between the
  // K-profile vectors (entries +-1/4).
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    const BucketOrder x = RandomBucketOrder(9, rng);
    const BucketOrder y = RandomBucketOrder(9, rng);
    EXPECT_EQ(TwiceKprof(x, y),
              TwiceKprofFromProfiles(KProfileQuarters(x), KProfileQuarters(y)));
  }
}

TEST(ProfileMetricsTest, FProfileIsPositionVector) {
  const BucketOrder x = Must(BucketOrder::FromBuckets(3, {{0, 2}, {1}}));
  EXPECT_EQ(FProfileTwice(x), (std::vector<std::int64_t>{3, 6, 3}));
}

TEST(ProfileMetricsTest, KprofOnFullRankingsIsKendall) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const Permutation a = Permutation::Random(10, rng);
    const Permutation b = Permutation::Random(10, rng);
    EXPECT_EQ(TwiceKprof(BucketOrder::FromPermutation(a),
                         BucketOrder::FromPermutation(b)),
              2 * KendallTau(a, b));
  }
}

TEST(ProfileMetricsTest, MetricAxioms) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const BucketOrder x = RandomBucketOrder(8, rng);
    const BucketOrder y = RandomBucketOrder(8, rng);
    EXPECT_EQ(TwiceKprof(x, x), 0);
    EXPECT_EQ(TwiceKprof(x, y), TwiceKprof(y, x));
    if (!(x == y)) {
      EXPECT_GT(TwiceKprof(x, y), 0);  // regularity
    }
    EXPECT_EQ(TwiceFprof(x, x), 0);
    EXPECT_EQ(TwiceFprof(x, y), TwiceFprof(y, x));
    if (!(x == y)) {
      EXPECT_GT(TwiceFprof(x, y), 0);
    }
  }
}

TEST(ProfileMetricsTest, KavgEqualsKprofForTopKLists) {
  // Paper A.3: on top-k lists over the active domain, Kprof == Kavg of
  // [10]. (For general partial rankings they differ on tied-in-both pairs.)
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    // Build two top-2 lists over a domain of 4 so that no pair is tied in
    // both bottom buckets... use full active-domain shape: every element is
    // in the top of at least one list.
    const Permutation pa = Permutation::Random(4, rng);
    const Permutation pb = pa.Reverse();  // tops cover everything
    const BucketOrder a = BucketOrder::TopKOf(pa, 2);
    const BucketOrder b = BucketOrder::TopKOf(pb, 2);
    EXPECT_DOUBLE_EQ(ref::Kavg(a, b), Kprof(a, b)) << trial;
  }
}

TEST(ProfileMetricsTest, KavgExceedsKprofWhenTiedBothExists) {
  // Two identical single-bucket orders: Kprof = 0 but Kavg > 0 — the very
  // reason Kavg is not a distance measure on general partial rankings (A.3).
  const BucketOrder tied = BucketOrder::SingleBucket(3);
  EXPECT_DOUBLE_EQ(Kprof(tied, tied), 0.0);
  EXPECT_GT(ref::Kavg(tied, tied), 0.0);
}

}  // namespace
}  // namespace rankties
