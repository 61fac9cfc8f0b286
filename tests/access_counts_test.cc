// Regression test pinning the access-cost accounting of the TA / NRA /
// MEDRANK engines to hand-computed traces on two fixed instances, and (in
// instrumented builds) checking that the obs counters expose exactly the
// same numbers. These are the paper's Section 6 cost measures; a silent
// change in access order or stopping rule shows up here as a count drift
// even when the returned top-k stays correct.

#include <gtest/gtest.h>

#include <vector>

#include "access/medrank_engine.h"
#include "access/nra_median.h"
#include "access/ta_median.h"
#include "obs/obs.h"
#include "rank/bucket_order.h"

namespace rankties {
namespace {

// Instance 1: three identical full rankings [0 | 1 | 2].
//
// Hand trace (n = 3, m = 3, k = 1, round-robin sorted access):
//  * TA round 1 touches element 0 in all three lists (3 sorted accesses,
//    2 random accesses to score it); the frontier median threshold (quad 4)
//    ties the heap top, so round 2 runs (3 more sorted accesses, 2 random
//    for element 1) and certifies: 6 sorted, 4 random.
//  * NRA certifies after one full round: 3 accesses, one per list.
//  * MEDRANK stops mid-round once element 0 reaches the majority (2 of 3):
//    lists 0 and 1 are read once, list 2 never — 2 accesses, depth 1.
std::vector<BucketOrder> IdenticalChains() {
  auto order = BucketOrder::FromBuckets(3, {{0}, {1}, {2}});
  return {*order, *order, *order};
}

// Instance 2: ties and disagreement (n = 4, m = 3, k = 1).
//   L1 = [{0,1} | {2} | {3}]   (0 and 1 tied at doubled position 3)
//   L2 = [{1} | {0} | {2} | {3}]
//   L3 = [{0} | {1} | {2} | {3}]
// Median doubled positions: e0 -> 3, e1 -> 3, e2 -> 6, e3 -> 8; the top-1
// tie breaks to the smaller id, element 0.
//
// Hand trace:
//  * TA round 1 scores e0 (from L1) and e1 (from L2) — 3 sorted + 4 random
//    accesses; threshold quad 4 < heap-top 6, so round 2 runs (3 sorted,
//    everything already scored) and raises the threshold to 8: 6 sorted,
//    4 random.
//  * NRA round 1 leaves e1's lower bound below e0's upper bound; round 2
//    pins both and certifies: 6 accesses, 2 per list.
//  * MEDRANK depth 1: L1 yields e0, L2 yields e1, L3 yields e0 — majority
//    for e0 on the third access: 3 accesses, depth 1.
std::vector<BucketOrder> TiedDisagreeing() {
  auto l1 = BucketOrder::FromBuckets(4, {{0, 1}, {2}, {3}});
  auto l2 = BucketOrder::FromBuckets(4, {{1}, {0}, {2}, {3}});
  auto l3 = BucketOrder::FromBuckets(4, {{0}, {1}, {2}, {3}});
  return {*l1, *l2, *l3};
}

// Snapshot of the obs counters the engines maintain, for delta checks.
struct CounterState {
  std::int64_t ta_sorted;
  std::int64_t ta_random;
  std::int64_t nra_sorted;
  std::int64_t medrank_sorted;
  std::int64_t source_accesses;

  static CounterState Read() {
    return {obs::GetCounter("access.ta.sorted_accesses")->Value(),
            obs::GetCounter("access.ta.random_accesses")->Value(),
            obs::GetCounter("access.nra.sorted_accesses")->Value(),
            obs::GetCounter("access.medrank.sorted_accesses")->Value(),
            obs::GetCounter("access.sorted_accesses")->Value()};
  }
};

TEST(AccessCountsTest, TaOnIdenticalChains) {
  const auto result = TaMedianTopK(IdenticalChains(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->top, std::vector<ElementId>{0});
  EXPECT_EQ(result->scores_quad, std::vector<std::int64_t>{4});
  EXPECT_EQ(result->sorted_accesses, 6);
  EXPECT_EQ(result->random_accesses, 4);
}

TEST(AccessCountsTest, NraOnIdenticalChains) {
  const auto result = NraMedianTopK(IdenticalChains(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->top, std::vector<ElementId>{0});
  EXPECT_EQ(result->total_accesses, 3);
  EXPECT_EQ(result->accesses_per_list, (std::vector<std::int64_t>{1, 1, 1}));
}

TEST(AccessCountsTest, MedrankOnIdenticalChains) {
  const auto result = MedrankTopK(IdenticalChains(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->winners, std::vector<ElementId>{0});
  EXPECT_EQ(result->total_accesses, 2);
  EXPECT_EQ(result->accesses_per_list, (std::vector<std::int64_t>{1, 1, 0}));
  EXPECT_EQ(result->depth, 1);
}

TEST(AccessCountsTest, TaOnTiedDisagreeing) {
  const auto result = TaMedianTopK(TiedDisagreeing(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->top, std::vector<ElementId>{0});
  EXPECT_EQ(result->scores_quad, std::vector<std::int64_t>{6});
  EXPECT_EQ(result->sorted_accesses, 6);
  EXPECT_EQ(result->random_accesses, 4);
}

TEST(AccessCountsTest, NraOnTiedDisagreeing) {
  const auto result = NraMedianTopK(TiedDisagreeing(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->top, std::vector<ElementId>{0});
  EXPECT_EQ(result->total_accesses, 6);
  EXPECT_EQ(result->accesses_per_list, (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(AccessCountsTest, MedrankOnTiedDisagreeing) {
  const auto result = MedrankTopK(TiedDisagreeing(), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->winners, std::vector<ElementId>{0});
  EXPECT_EQ(result->total_accesses, 3);
  EXPECT_EQ(result->accesses_per_list, (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(result->depth, 1);
}

// The obs counters must report the exact same accounting the result
// structs do — one run of each engine, checked as registry deltas.
TEST(AccessCountsTest, ObsCountersMatchResultFields) {
  obs::SetEnabled(true);
  const std::vector<BucketOrder> inputs = TiedDisagreeing();

  const CounterState before_ta = CounterState::Read();
  const auto ta = TaMedianTopK(inputs, 1);
  ASSERT_TRUE(ta.ok());
  const CounterState after_ta = CounterState::Read();
  EXPECT_EQ(after_ta.ta_sorted - before_ta.ta_sorted, ta->sorted_accesses);
  EXPECT_EQ(after_ta.ta_random - before_ta.ta_random, ta->random_accesses);
  // Every TA sorted access goes through a BucketOrderSource.
  EXPECT_EQ(after_ta.source_accesses - before_ta.source_accesses,
            ta->sorted_accesses);

  const CounterState before_nra = CounterState::Read();
  const auto nra = NraMedianTopK(inputs, 1);
  ASSERT_TRUE(nra.ok());
  const CounterState after_nra = CounterState::Read();
  EXPECT_EQ(after_nra.nra_sorted - before_nra.nra_sorted,
            nra->total_accesses);
  EXPECT_EQ(after_nra.source_accesses - before_nra.source_accesses,
            nra->total_accesses);

  const CounterState before_mr = CounterState::Read();
  const auto medrank = MedrankTopK(inputs, 1);
  ASSERT_TRUE(medrank.ok());
  const CounterState after_mr = CounterState::Read();
  EXPECT_EQ(after_mr.medrank_sorted - before_mr.medrank_sorted,
            medrank->total_accesses);
  EXPECT_EQ(after_mr.source_accesses - before_mr.source_accesses,
            medrank->total_accesses);

  // The depth histogram saw this run's depth.
  const obs::HistogramSnapshot depth =
      obs::GetHistogram("access.medrank.depth")->Snapshot();
  EXPECT_GE(depth.count, 1);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace rankties
