// Appendix A.3: compatibility of this library's metrics, restricted to
// top-k lists, with the distance measures of Fagin–Kumar–Sivakumar [10].

#include <gtest/gtest.h>

#include "core/footrule.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "ref/ref_metrics.h"
#include "util/rng.h"

namespace rankties {
namespace {

// Builds two random top-k lists over the same domain such that the domain
// is exactly the "active domain" (every element in the top of at least one
// list) — the compatibility regime of A.3. Uses n = 2k and disjoint tops.
std::pair<BucketOrder, BucketOrder> ActiveDomainTopK(std::size_t k, Rng& rng) {
  const std::size_t n = 2 * k;
  const Permutation p = Permutation::Random(n, rng);
  // First list tops: p's first k; second list tops: p's last k (reversed
  // order), so tops partition the domain.
  std::vector<ElementId> second_order;
  for (std::size_t r = n; r > k; --r) {
    second_order.push_back(p.At(static_cast<ElementId>(r - 1)));
  }
  for (std::size_t r = 0; r < k; ++r) {
    second_order.push_back(p.At(static_cast<ElementId>(r)));
  }
  auto second = Permutation::FromOrder(second_order);
  EXPECT_TRUE(second.ok());
  return {BucketOrder::TopKOf(p, k), BucketOrder::TopKOf(*second, k)};
}

TEST(TopKCompatTest, FprofEqualsFootruleLocationAtCanonicalEll) {
  // A.3: Fprof(sigma, tau) = F^(l)(sigma, tau) for l = (|D| + k + 1) / 2.
  Rng rng(1);
  for (std::size_t k : {1u, 2u, 3u, 5u}) {
    for (int trial = 0; trial < 15; ++trial) {
      const std::size_t n = 2 * k + static_cast<std::size_t>(
                                        rng.UniformInt(0, 4));
      const BucketOrder sigma = RandomTopK(n, k, rng);
      const BucketOrder tau = RandomTopK(n, k, rng);
      const std::int64_t twice_ell =
          static_cast<std::int64_t>(n + k + 1);  // 2 * (n+k+1)/2
      auto floc = TwiceFootruleLocation(sigma, tau, k, twice_ell);
      ASSERT_TRUE(floc.ok());
      EXPECT_EQ(TwiceFprof(sigma, tau), *floc)
          << "k=" << k << " n=" << n << " trial=" << trial;
    }
  }
}

TEST(TopKCompatTest, KprofEqualsKavgOnActiveDomain) {
  Rng rng(2);
  for (std::size_t k : {1u, 2u, 3u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto [sigma, tau] = ActiveDomainTopK(k, rng);
      EXPECT_DOUBLE_EQ(Kprof(sigma, tau), ref::Kavg(sigma, tau))
          << "k=" << k;
    }
  }
}

TEST(TopKCompatTest, DisjointTopsHitMaximalPenalties) {
  // Fully disjoint top-k lists: every top element of one list is in the
  // other's bottom bucket. k*k cross pairs are strictly ordered in both...
  // verify the metrics behave monotonically: distance grows with k.
  Rng rng(3);
  double last = -1;
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    const auto [sigma, tau] = ActiveDomainTopK(k, rng);
    const double d = Kprof(sigma, tau);
    EXPECT_GT(d, last);
    last = d;
  }
}

TEST(TopKCompatTest, KendallPCasesOnTopKLists) {
  // On top-k lists the p-parameterized family stays ordered in p.
  Rng rng(4);
  const BucketOrder sigma = RandomTopK(10, 4, rng);
  const BucketOrder tau = RandomTopK(10, 4, rng);
  double last = -1;
  for (double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double d = KendallP(sigma, tau, p);
    EXPECT_GE(d, last);
    last = d;
  }
}

}  // namespace
}  // namespace rankties
