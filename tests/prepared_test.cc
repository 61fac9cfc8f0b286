#include "core/prepared.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/metric_registry.h"
#include "core/pair_counts.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "rank/bucket_order.h"
#include "ref/per_pair.h"
#include "util/rng.h"

// Allocation-counting hook for the zero-allocation contract of the prepared
// kernels: the test binary replaces global operator new/delete with
// pass-throughs that bump a thread-local counter while a test has armed it.
// Thread-local keeps the hook race-free without putting atomics on every
// allocation in the binary.
namespace {
thread_local bool g_count_allocations = false;
thread_local std::int64_t g_allocation_count = 0;
}  // namespace

// noinline keeps GCC from pairing the malloc/free inside with new/delete
// expressions at call sites (-Wmismatched-new-delete false positives).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocation_count;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace rankties {
namespace {

// A mixed bag of ranking shapes: varies n, bucket count (hits both the flat
// and the sort-fallback joint-histogram modes), and tie structure.
std::vector<BucketOrder> MixedOrders(Rng& rng) {
  std::vector<BucketOrder> orders;
  orders.push_back(BucketOrder());                 // n = 0
  orders.push_back(BucketOrder::SingleBucket(1));  // n = 1
  orders.push_back(BucketOrder::SingleBucket(40));
  for (const std::size_t n : {2, 3, 17, 40, 129}) {
    orders.push_back(BucketOrder::FromPermutation(
        Permutation::Random(n, rng)));  // all singletons -> sort fallback
    orders.push_back(RandomBucketOrder(n, rng));
    orders.push_back(RandomFewValued(n, 4.0, rng));  // few buckets -> flat
    orders.push_back(RandomTopK(n, n / 2, rng));
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

// One scratch driven through wildly varying n / bucket counts / histogram
// modes: reuse must never leak state between calls (the Fenwick prefix and
// flat-histogram entries are per-call).
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

TEST(PreparedKernelsTest, ReserveIsOptionalAndHarmless) {
  Rng rng(3);
  const BucketOrder sigma = RandomFewValued(50, 5.0, rng);
  const BucketOrder tau = RandomBucketOrder(50, rng);
  PairScratch cold;
  PairScratch reserved;
  reserved.Reserve(50, 50);
  EXPECT_EQ(ComputePairCounts(sigma, tau, cold),
            ComputePairCounts(sigma, tau, reserved));
}

// The core acceptance criterion of the prepared layer: once the scratch has
// seen the workload's shape, the per-pair kernels never touch the heap.
TEST(PreparedKernelsTest, WarmKernelsPerformZeroHeapAllocations) {
  Rng rng(11);
  std::vector<BucketOrder> orders;
  for (int i = 0; i < 6; ++i) {
    orders.push_back(RandomFewValued(200, 4.0, rng));         // flat joint
    orders.push_back(
        BucketOrder::FromPermutation(Permutation::Random(200, rng)));
    // ^ all-singleton: t_sigma * t_tau = n^2 -> sort-fallback joint
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
