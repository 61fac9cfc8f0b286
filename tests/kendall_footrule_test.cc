#include <gtest/gtest.h>

#include "core/footrule.h"
#include "core/kendall.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

Permutation MustPerm(StatusOr<Permutation> perm) {
  EXPECT_TRUE(perm.ok()) << perm.status();
  return std::move(perm).value();
}

TEST(KendallTest, HandExample) {
  // (0 1 2 3) vs (1 0 3 2): pairs {0,1} and {2,3} flip -> K = 2.
  const Permutation a(4);
  const Permutation b = MustPerm(Permutation::FromOrder({1, 0, 3, 2}));
  EXPECT_EQ(KendallTau(a, b), 2);
  EXPECT_EQ(ref::KendallTau(a, b), 2);
}

TEST(KendallTest, ReversalIsMaximal) {
  for (std::size_t n : {1u, 2u, 5u, 10u, 33u}) {
    const Permutation id(n);
    EXPECT_EQ(KendallTau(id, id.Reverse()), MaxKendall(n));
  }
}

TEST(KendallTest, MetricAxiomsOnPermutations) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const Permutation a = Permutation::Random(12, rng);
    const Permutation b = Permutation::Random(12, rng);
    const Permutation c = Permutation::Random(12, rng);
    EXPECT_EQ(KendallTau(a, a), 0);
    EXPECT_EQ(KendallTau(a, b), KendallTau(b, a));
    EXPECT_LE(KendallTau(a, c), KendallTau(a, b) + KendallTau(b, c));
  }
}

class KendallParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KendallParityTest, FastMatchesNaive) {
  const std::size_t n = GetParam();
  Rng rng(n);
  for (int trial = 0; trial < 30; ++trial) {
    const Permutation a = Permutation::Random(n, rng);
    const Permutation b = Permutation::Random(n, rng);
    EXPECT_EQ(KendallTau(a, b), ref::KendallTau(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KendallParityTest,
                         ::testing::Values(1, 2, 3, 7, 16, 50, 127));

TEST(FootruleTest, HandExample) {
  const Permutation a(4);
  const Permutation b = MustPerm(Permutation::FromOrder({1, 0, 3, 2}));
  // Each element moves one slot: F = 4.
  EXPECT_EQ(Footrule(a, b), 4);
}

TEST(FootruleTest, ReversalIsMaximal) {
  for (std::size_t n : {1u, 2u, 5u, 10u, 31u}) {
    const Permutation id(n);
    EXPECT_EQ(Footrule(id, id.Reverse()), MaxFootrule(n));
  }
}

TEST(FootruleTest, DiaconisGrahamInequality) {
  // K <= F <= 2K for full rankings (paper eq. 1).
  Rng rng(6);
  for (std::size_t n : {2u, 5u, 9u, 20u, 60u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const Permutation a = Permutation::Random(n, rng);
      const Permutation b = Permutation::Random(n, rng);
      const std::int64_t k = KendallTau(a, b);
      const std::int64_t f = Footrule(a, b);
      EXPECT_LE(k, f);
      EXPECT_LE(f, 2 * k);
    }
  }
}

TEST(FootruleTest, DiaconisGrahamTightness) {
  // Left side tight: adjacent transposition has K=1, F=2... actually K=1,
  // F=2 is the *right* side tight (F = 2K). Left side tight (F = K):
  // a cyclic shift by one, e.g. (1 2 0): K = 2, F = ... ranks 0:1,1:... use
  // explicit orders.
  const Permutation id(3);
  const Permutation swap01 = MustPerm(Permutation::FromOrder({1, 0, 2}));
  EXPECT_EQ(KendallTau(id, swap01), 1);
  EXPECT_EQ(Footrule(id, swap01), 2);  // F = 2K: right inequality tight

  const Permutation cycle = MustPerm(Permutation::FromOrder({2, 0, 1}));
  // id ranks: 0->0,1->1,2->2. cycle ranks: 2->0, 0->1, 1->2.
  // K: pairs (0,2),(1,2) flipped -> 2. F: |0-1|+|1-2|+|2-0| = 4.
  EXPECT_EQ(KendallTau(id, cycle), 2);
  EXPECT_EQ(Footrule(id, cycle), 4);
}

TEST(FootruleTest, FprofOnFullRankingsEqualsFootrule) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Permutation a = Permutation::Random(9, rng);
    const Permutation b = Permutation::Random(9, rng);
    EXPECT_EQ(TwiceFprof(BucketOrder::FromPermutation(a),
                         BucketOrder::FromPermutation(b)),
              2 * Footrule(a, b));
  }
}

TEST(FootruleTest, FprofHandExample) {
  // sigma = [0 1 | 2], tau = [2 | 0 1]. Positions sigma: 1.5,1.5,3;
  // tau: 2.5,2.5,1. Fprof = 1 + 1 + 2 = 4.
  auto sigma = BucketOrder::FromBuckets(3, {{0, 1}, {2}});
  auto tau = BucketOrder::FromBuckets(3, {{2}, {0, 1}});
  ASSERT_TRUE(sigma.ok() && tau.ok());
  EXPECT_EQ(TwiceFprof(*sigma, *tau), 8);
  EXPECT_DOUBLE_EQ(Fprof(*sigma, *tau), 4.0);
}

TEST(FootruleTest, FootruleLocationRequiresTopK) {
  Rng rng(8);
  const BucketOrder topk = RandomTopK(10, 3, rng);
  const BucketOrder not_topk = RandomBucketOrder(10, rng);
  auto bad = TwiceFootruleLocation(topk, not_topk, 3, 14);
  if (!not_topk.IsTopK(3)) {
    EXPECT_FALSE(bad.ok());
  }
  auto bad_ell = TwiceFootruleLocation(topk, topk, 3, 6);
  EXPECT_FALSE(bad_ell.ok());
}

TEST(FootruleTest, FootruleLocationSelfIsZero) {
  Rng rng(9);
  const BucketOrder topk = RandomTopK(8, 3, rng);
  auto d = TwiceFootruleLocation(topk, topk, 3, 12);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 0);
}

TEST(KendallTest, MaxKendallHugeDomainsStayExact) {
  // The old n*(n-1)/2 wrapped for n past 2^32; the checked form is exact up
  // to the largest domain whose pair count fits an int64 (n = 2^32).
  EXPECT_EQ(MaxKendall(3000000000ULL), 4499999998500000000LL);
  EXPECT_EQ(MaxKendall(1ULL << 32),
            (std::int64_t{1} << 31) * ((std::int64_t{1} << 32) - 1));
}

TEST(KendallDeathTest, MaxKendallAbortsPastInt64) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // One element past the boundary: n(n-1)/2 exceeds 2^63 - 1.
  EXPECT_DEATH(MaxKendall((1ULL << 32) + 1), "integer overflow");
}

}  // namespace
}  // namespace rankties
