#include "core/prepared.h"

#include <gtest/gtest.h>

#include <vector>

#include "allocation_hook.h"
#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/metric_registry.h"
#include "core/pair_counts.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "obs/obs.h"
#include "rank/bucket_order.h"
#include "ref/per_pair.h"
#include "util/rng.h"

namespace rankties {
namespace {

// A ranking of n elements whose bucket `at` holds `size` random elements;
// the other `others` buckets share the rest round-robin.
BucketOrder WithLargestBucket(std::size_t n, std::size_t size,
                              std::size_t others, std::size_t at, Rng& rng) {
  const Permutation perm = Permutation::Random(n, rng);
  std::vector<BucketIndex> bucket_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t b = at;
    if (i >= size) {
      b = (i - size) % others;
      if (b >= at) ++b;
    }
    bucket_of[static_cast<std::size_t>(perm.At(static_cast<ElementId>(i)))] =
        static_cast<BucketIndex>(b);
  }
  StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(bucket_of);
  EXPECT_TRUE(order.ok());
  return *order;
}

// A mixed bag of ranking shapes: varies n, bucket count and tie structure,
// and pins the joint walk's feed crossover and the flat feed's pivot from
// both sides. At n = 1000 the flat feed's cap is 32n cells, so a 32-bucket
// ranking against a full one (32,000 cells) takes the flat feed and a
// 33-bucket one (33,000) the sorted feed; at n = 40000 the cap is 2^20
// cells, so 1024 x 1024 is flat and 1024 x 1025 (1,049,600) is sorted.
// Back at n = 1000, a largest bucket of exactly 500 keeps the id-order
// scatter and one of 501 is a pivot; two rankings share a largest-bucket
// size of 700, so neither side is preferred; and top-k lists pivot on
// their bottom bucket, top-31 against the full ranking exactly on the 32n
// cap.
std::vector<BucketOrder> MixedOrders(Rng& rng) {
  std::vector<BucketOrder> orders;
  orders.push_back(BucketOrder());                 // n = 0
  orders.push_back(BucketOrder::SingleBucket(1));  // n = 1
  orders.push_back(BucketOrder::SingleBucket(40));
  for (const std::size_t n : {2, 3, 17, 40, 129}) {
    orders.push_back(BucketOrder::FromPermutation(
        Permutation::Random(n, rng)));  // all singletons -> sorted feed
    orders.push_back(RandomBucketOrder(n, rng));
    orders.push_back(RandomFewValued(n, 4.0, rng));  // few buckets -> flat
    orders.push_back(RandomTopK(n, n / 2, rng));
  }
  orders.push_back(RandomBucketOrderWithBuckets(1000, 32, rng));
  orders.push_back(RandomBucketOrderWithBuckets(1000, 33, rng));
  orders.push_back(
      BucketOrder::FromPermutation(Permutation::Random(1000, rng)));
  orders.push_back(RandomBucketOrderWithBuckets(40000, 1024, rng));
  orders.push_back(RandomBucketOrderWithBuckets(40000, 1025, rng));
  orders.push_back(WithLargestBucket(1000, 500, 20, 7, rng));
  orders.push_back(WithLargestBucket(1000, 501, 20, 7, rng));
  orders.push_back(WithLargestBucket(1000, 700, 12, 0, rng));
  orders.push_back(WithLargestBucket(1000, 700, 30, 30, rng));
  for (const std::size_t k : {1, 10, 31}) {
    orders.push_back(RandomTopK(1000, k, rng));
  }
  return orders;
}

// The kernels against the per-pair oracle tier (src/ref/per_pair.h), and
// the two-argument point forms against the kernels.
void ExpectPreparedMatchesLegacy(const BucketOrder& sigma,
                                 const BucketOrder& tau,
                                 PairScratch& scratch) {
  const PairCounts expected = ref::ComputePairCounts(sigma, tau);
  EXPECT_EQ(ComputePairCounts(sigma, tau, scratch), expected);
  EXPECT_EQ(ComputePairCounts(sigma, tau), expected);
  EXPECT_EQ(TwiceKprof(sigma, tau, scratch), TwiceKprofFromCounts(expected));
  EXPECT_EQ(Kprof(sigma, tau, scratch), ref::UnpreparedMetric(
                                            MetricKind::kKprof, sigma, tau));
  EXPECT_EQ(Kprof(sigma, tau), Kprof(sigma, tau, scratch));
  EXPECT_EQ(KHausdorff(sigma, tau, scratch), KHausdorffFromCounts(expected));
  EXPECT_EQ(KHausdorff(sigma, tau), KHausdorff(sigma, tau, scratch));
  EXPECT_EQ(TwiceFprof(sigma, tau), ref::TwiceFprofByPosition(sigma, tau));
  EXPECT_EQ(TwiceFHausdorff(sigma, tau, scratch),
            ref::TwiceFHausdorffTheorem5(sigma, tau));
  EXPECT_EQ(TwiceFHausdorff(sigma, tau), TwiceFHausdorff(sigma, tau, scratch));
  EXPECT_EQ(FHausdorff(sigma, tau, scratch),
            ref::UnpreparedMetric(MetricKind::kFHaus, sigma, tau));
  for (const double p : {0.0, 0.25, 0.5, 1.0}) {
    const double want = KendallPFromCounts(expected, p);
    EXPECT_EQ(KendallP(sigma, tau, p, scratch), want);
    EXPECT_EQ(KendallP(sigma, tau, p), want);
  }
}

TEST(PreparedKernelsTest, DefaultAndDegenerateDomains) {
  PairScratch scratch;
  const BucketOrder empty;
  EXPECT_EQ(ComputePairCounts(empty, empty, scratch), PairCounts());
  const BucketOrder one = BucketOrder::SingleBucket(1);
  EXPECT_EQ(TwiceKprof(one, one, scratch), 0);
  EXPECT_EQ(KHausdorff(one, one, scratch), 0);
  EXPECT_EQ(TwiceFprof(one, one), 0);
  EXPECT_EQ(TwiceFHausdorff(one, one, scratch), 0);
}

// A copy of a ranking is its four flat vectors, whatever its bucket count,
// so a full ranking copies in a handful of allocations rather than one per
// bucket.
TEST(PreparedKernelsTest, CopyingAFullRankingAllocatesAtMostFiveTimes) {
  Rng rng(5);
  const BucketOrder full =
      BucketOrder::FromPermutation(Permutation::Random(4096, rng));
  g_allocation_count = 0;
  g_count_allocations = true;
  const BucketOrder copy = full;
  g_count_allocations = false;
  EXPECT_LE(g_allocation_count, 5);
  EXPECT_EQ(copy, full);
}

TEST(PreparedKernelsTest, MatchLegacyOnRandomizedPairs) {
  Rng rng(20260806);
  PairScratch scratch;
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 60));
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = round % 2 == 0 ? RandomBucketOrder(n, rng)
                                           : RandomFewValued(n, 3.0, rng);
    ExpectPreparedMatchesLegacy(sigma, tau, scratch);
  }
}

// One scratch driven through wildly varying n / bucket counts / feeds, in
// both argument orders: reuse must never leak state between calls (the
// per-tau-bucket slots and the flat histogram's cells are per-call).
TEST(PreparedKernelsTest, ScratchReuseAcrossVaryingInputs) {
  Rng rng(42);
  const std::vector<BucketOrder> orders = MixedOrders(rng);
  PairScratch scratch;
  for (const BucketOrder& sigma : orders) {
    for (const BucketOrder& tau : orders) {
      if (sigma.n() != tau.n()) continue;
      ExpectPreparedMatchesLegacy(sigma, tau, scratch);
    }
  }
}

// Repeats a call after the scratch served larger inputs in between: stale
// high-water state must not change the answer.
TEST(PreparedKernelsTest, ShrinkingInputsAfterLargeOnes) {
  Rng rng(7);
  PairScratch scratch;
  const BucketOrder small_sigma = RandomBucketOrder(9, rng);
  const BucketOrder small_tau = RandomBucketOrder(9, rng);
  const PairCounts before = ComputePairCounts(small_sigma, small_tau, scratch);

  const BucketOrder big_sigma =
      BucketOrder::FromPermutation(Permutation::Random(300, rng));
  const BucketOrder big_tau = RandomBucketOrder(300, rng);
  ExpectPreparedMatchesLegacy(big_sigma, big_tau, scratch);

  EXPECT_EQ(ComputePairCounts(small_sigma, small_tau, scratch), before);
  EXPECT_EQ(before, ref::ComputePairCounts(small_sigma, small_tau));
}

// The core acceptance criterion of the prepared layer: once the scratch has
// seen the workload's shape, the per-pair kernels never touch the heap.
TEST(PreparedKernelsTest, WarmKernelsPerformZeroHeapAllocations) {
  Rng rng(11);
  std::vector<BucketOrder> orders;
  for (int i = 0; i < 6; ++i) {
    orders.push_back(RandomFewValued(200, 4.0, rng));         // flat feed
    orders.push_back(
        BucketOrder::FromPermutation(Permutation::Random(200, rng)));
    // ^ all-singleton: t_sigma * t_tau = n^2 -> sorted feed
    orders.push_back(RandomTopK(200, 5, rng));  // flat feed, pivot
  }
  PairScratch scratch;
  // Warm-up pass: grows the scratch to its high-water mark and runs the
  // obs counters' one-time handle registration.
  std::int64_t checksum = 0;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    for (std::size_t j = i + 1; j < orders.size(); ++j) {
      checksum += TwiceKprof(orders[i], orders[j], scratch);
      checksum += KHausdorff(orders[i], orders[j], scratch);
      checksum += TwiceFprof(orders[i], orders[j]);
      checksum += TwiceFHausdorff(orders[i], orders[j], scratch);
    }
  }

  std::int64_t counted = 0;
  g_allocation_count = 0;
  g_count_allocations = true;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    for (std::size_t j = i + 1; j < orders.size(); ++j) {
      counted += TwiceKprof(orders[i], orders[j], scratch);
      counted += KHausdorff(orders[i], orders[j], scratch);
      counted += TwiceFprof(orders[i], orders[j]);
      counted += TwiceFHausdorff(orders[i], orders[j], scratch);
    }
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocation_count, 0)
      << "warm prepared kernels must not allocate";
  EXPECT_EQ(counted, checksum);
}

// `prepared.pivot_walks` counts one per walk that pivoted: two top-10
// lists pivot on a bottom bucket of 990, while two rankings whose largest
// buckets hold exactly n/2 keep the id-order scatter. The kernel pivots on
// tau's majority bucket too, and finds one that ends or starts just past
// the middle of by_bucket(): [500, 1001) in a top-500 list of 1001, and
// [0, 501) in a ranking of 1000.
TEST(PreparedKernelsTest, PivotWalksAreCounted) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::Counter* pivots = obs::GetCounter("prepared.pivot_walks");
  Rng rng(22);
  const BucketOrder top_a = RandomTopK(1000, 10, rng);
  const BucketOrder top_b = RandomTopK(1000, 10, rng);
  const BucketOrder half_a = WithLargestBucket(1000, 500, 20, 7, rng);
  const BucketOrder half_b = WithLargestBucket(1000, 500, 40, 40, rng);
  const BucketOrder top_500 = RandomTopK(1001, 500, rng);
  const BucketOrder odd_32 = RandomBucketOrderWithBuckets(1001, 32, rng);
  const BucketOrder front_501 = WithLargestBucket(1000, 501, 20, 0, rng);
  PairScratch scratch;
  const auto pivots_in = [&](const BucketOrder& sigma,
                             const BucketOrder& tau) {
    const std::int64_t before = pivots->Value();
    EXPECT_EQ(ComputePairCounts(sigma, tau, scratch),
              ref::ComputePairCounts(sigma, tau));
    return pivots->Value() - before;
  };
  EXPECT_EQ(pivots_in(top_a, top_b), 1);
  EXPECT_EQ(pivots_in(half_a, half_b), 0);
  EXPECT_EQ(pivots_in(half_a, top_a), 1);
  EXPECT_EQ(pivots_in(odd_32, top_500), 1);
  EXPECT_EQ(pivots_in(half_a, front_501), 1);
  obs::SetEnabled(was_enabled);
}

// Contrast case documenting why batch loops pass their own scratch: the
// two-argument point form grows a fresh function-local scratch per call.
TEST(PreparedKernelsTest, LegacyKernelsDoAllocatePerPair) {
  Rng rng(11);
  const BucketOrder sigma = RandomFewValued(200, 4.0, rng);
  const BucketOrder tau = RandomBucketOrder(200, rng);
  (void)TwiceKprof(sigma, tau);  // warm-up for symmetry
  g_allocation_count = 0;
  g_count_allocations = true;
  const std::int64_t value = TwiceKprof(sigma, tau);
  g_count_allocations = false;
  EXPECT_GT(g_allocation_count, 0);
  EXPECT_EQ(value, TwiceKprof(sigma, tau));
}

}  // namespace
}  // namespace rankties
