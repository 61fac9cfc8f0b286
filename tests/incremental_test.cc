// Unit tests for the incremental engines: BucketOrder delta
// operations, IncrementalDistanceMatrix row/count maintenance, and
// the delta-aware OnlineMedianAggregator — hand-built cases with known
// answers plus seeded randomized agreement with the batch engines. The
// adversarial differential coverage lives in the mutation-trace fuzz
// family (tests/fuzz/mutation_trace.cc); these tests pin the contracts:
// exact Status failures, no-op detection, renumbering, and the
// pairs-reevaluated accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batch_engine.h"
#include "core/metric_registry.h"
#include "gen/random_orders.h"
#include "rank/bucket_order.h"
#include "util/rng.h"

namespace rankties {
namespace {

BucketOrder Make(std::size_t n,
                 const std::vector<std::vector<ElementId>>& buckets) {
  StatusOr<BucketOrder> order = BucketOrder::FromBuckets(n, buckets);
  EXPECT_TRUE(order.ok());
  return *order;
}

// A delta-edited ranking equals a fresh FromBuckets build of the expected
// partition array for array.
void ExpectFrozenEqual(const BucketOrder& got, const BucketOrder& want) {
  EXPECT_EQ(got.bucket_of(), want.bucket_of());
  EXPECT_EQ(got.by_bucket(), want.by_bucket());
  EXPECT_EQ(got.bucket_offset(), want.bucket_offset());
  EXPECT_EQ(got.twice_position(), want.twice_position());
  EXPECT_EQ(got.tied_pairs(), want.tied_pairs());
  EXPECT_TRUE(got.Validate().ok()) << got.Validate();
}

TEST(PreparedDeltaTest, MoveToBucketMatchesFreshFreeze) {
  // [0 1 | 2 | 3 4] with a forward move, a backward move, and a no-op.
  BucketOrder live = Make(5, {{0, 1}, {2}, {3, 4}});
  ASSERT_TRUE(live.MoveToBucket(0, 2).ok());
  ExpectFrozenEqual(live, Make(5, {{1}, {2}, {0, 3, 4}}));
  ASSERT_TRUE(live.MoveToBucket(4, 0).ok());
  ExpectFrozenEqual(live, Make(5, {{1, 4}, {2}, {0, 3}}));
  ASSERT_TRUE(live.MoveToBucket(2, 1).ok());  // already there: no-op
  ExpectFrozenEqual(live, Make(5, {{1, 4}, {2}, {0, 3}}));
}

TEST(PreparedDeltaTest, MoveToBucketCollapsesEmptiedSource) {
  // Moving the singleton middle bucket's element away removes the bucket
  // and shifts every later bucket down one index.
  BucketOrder live = Make(4, {{0}, {1}, {2, 3}});
  ASSERT_TRUE(live.MoveToBucket(1, 2).ok());
  ExpectFrozenEqual(live, Make(4, {{0}, {1, 2, 3}}));
  EXPECT_EQ(live.num_buckets(), 2u);
}

TEST(PreparedDeltaTest, MoveToNewBucketAllPositions) {
  // Split an element out to every insertion point, including both ends
  // (`before` indexes the *pre-edit* buckets; == num_buckets() appends).
  const std::vector<std::vector<std::vector<ElementId>>> want_by_before = {
      {{3}, {0, 1}, {2}},  // before = 0
      {{0, 1}, {3}, {2}},  // before = 1
      {{0, 1}, {2}, {3}},  // before = 2 (append)
  };
  for (std::size_t before = 0; before < want_by_before.size(); ++before) {
    BucketOrder live = Make(4, {{0, 1}, {2, 3}});
    ASSERT_TRUE(live.MoveToNewBucket(3, before).ok()) << "before=" << before;
    ExpectFrozenEqual(live, Make(4, want_by_before[before]));
  }
  // Past num_buckets() is out of range.
  BucketOrder live = Make(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(live.MoveToNewBucket(3, 3).ok());
}

TEST(PreparedDeltaTest, MoveToNewBucketRelocatesSingleton) {
  // The net-bucket-count-unchanged case: e is already a singleton and the
  // new singleton lands elsewhere (this is the path where a naive suffix
  // collapse would corrupt untouched bucket assignments).
  BucketOrder live = Make(4, {{0}, {1, 2}, {3}});
  ASSERT_TRUE(live.MoveToNewBucket(0, 3).ok());  // append after the last
  ExpectFrozenEqual(live, Make(4, {{1, 2}, {3}, {0}}));
  ASSERT_TRUE(live.MoveToNewBucket(3, 0).ok());
  ExpectFrozenEqual(live, Make(4, {{3}, {1, 2}, {0}}));
  // No-ops: a singleton re-inserted at its own spot, either way round.
  ASSERT_TRUE(live.MoveToNewBucket(3, 0).ok());
  ASSERT_TRUE(live.MoveToNewBucket(3, 1).ok());
  ExpectFrozenEqual(live, Make(4, {{3}, {1, 2}, {0}}));
}

TEST(PreparedDeltaTest, InsertItemGrowsDomain) {
  BucketOrder live = Make(3, {{0, 2}, {1}});
  ASSERT_TRUE(live.InsertItem(0).ok());  // fresh id 3 joins bucket 0
  ExpectFrozenEqual(live, Make(4, {{0, 2, 3}, {1}}));
  ASSERT_TRUE(live.InsertItem(1).ok());
  ExpectFrozenEqual(live, Make(5, {{0, 2, 3}, {1, 4}}));

  BucketOrder empty;
  ASSERT_TRUE(empty.InsertItem(0).ok());  // empty domain: element 0 appears
  ExpectFrozenEqual(empty, Make(1, {{0}}));
}

TEST(PreparedDeltaTest, EraseItemRenumbersAndCollapses) {
  BucketOrder live = Make(5, {{0, 3}, {1}, {2, 4}});
  ASSERT_TRUE(live.EraseItem(1).ok());  // empties the middle bucket
  // Ids above 1 shift down: {0 2} | {1 3}.
  ExpectFrozenEqual(live, Make(4, {{0, 2}, {1, 3}}));
  ASSERT_TRUE(live.EraseItem(0).ok());
  ExpectFrozenEqual(live, Make(3, {{1}, {0, 2}}));
  ASSERT_TRUE(live.EraseItem(2).ok());
  ASSERT_TRUE(live.EraseItem(0).ok());
  ASSERT_TRUE(live.EraseItem(0).ok());
  EXPECT_EQ(live.n(), 0u);
  EXPECT_EQ(live.num_buckets(), 0u);
  ExpectFrozenEqual(live, BucketOrder());
}

TEST(PreparedDeltaTest, FailedEditsLeaveRankingUntouched) {
  const BucketOrder original = Make(3, {{0}, {1, 2}});
  BucketOrder live = original;
  EXPECT_FALSE(live.MoveToBucket(5, 0).ok());     // element out of range
  EXPECT_FALSE(live.MoveToBucket(0, 2).ok());     // bucket out of range
  EXPECT_FALSE(live.MoveToNewBucket(-1, 0).ok());
  EXPECT_FALSE(live.MoveToNewBucket(0, 3).ok());  // may be num_buckets() max
  EXPECT_FALSE(live.InsertItem(2).ok());
  EXPECT_FALSE(live.EraseItem(3).ok());
  ExpectFrozenEqual(live, original);
}

class IncrementalMatrixTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(IncrementalMatrixTest, TracksDistanceMatrixUnderMoves) {
  const MetricKind kind = GetParam();
  Rng rng(0xD347A + static_cast<std::uint64_t>(kind));
  const std::size_t n = 12;
  std::vector<BucketOrder> lists;
  for (int i = 0; i < 5; ++i) lists.push_back(RandomBucketOrder(n, rng));
  StatusOr<IncrementalDistanceMatrix> engine =
      IncrementalDistanceMatrix::Create(kind, lists);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->Matrix(), DistanceMatrix(kind, lists));
  EXPECT_EQ(engine->pairs_reevaluated(), 0);

  std::int64_t effective_edits = 0;
  for (int step = 0; step < 60; ++step) {
    const std::size_t list = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(lists.size()) - 1));
    const ElementId e = static_cast<ElementId>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    const std::size_t buckets = engine->List(list).num_buckets();
    const std::vector<BucketIndex> before_edit = engine->List(list).bucket_of();
    if (rng.Bernoulli(0.5)) {
      const std::size_t target = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(buckets) - 1));
      ASSERT_TRUE(engine->MoveToBucket(list, e, target).ok());
    } else {
      const std::size_t before = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(buckets)));
      ASSERT_TRUE(engine->MoveToNewBucket(list, e, before).ok());
    }
    if (engine->List(list).bucket_of() != before_edit) ++effective_edits;
    lists[list] = engine->List(list);
    ASSERT_EQ(engine->Matrix(), DistanceMatrix(kind, lists)) << "step "
                                                             << step;
  }
  // Each effective edit re-derives exactly row/column `list` — m-1 pairs;
  // no-op edits (move into the current bucket) cost nothing on any path.
  EXPECT_GT(effective_edits, 0);
  EXPECT_EQ(engine->pairs_reevaluated(),
            effective_edits * (static_cast<std::int64_t>(lists.size()) - 1));
}

TEST_P(IncrementalMatrixTest, ReplaceListRefreshesOneRow) {
  const MetricKind kind = GetParam();
  Rng rng(0x9E9E + static_cast<std::uint64_t>(kind));
  std::vector<BucketOrder> lists;
  for (int i = 0; i < 4; ++i) lists.push_back(RandomBucketOrder(9, rng));
  StatusOr<IncrementalDistanceMatrix> engine =
      IncrementalDistanceMatrix::Create(kind, lists);
  ASSERT_TRUE(engine.ok());
  for (int round = 0; round < 10; ++round) {
    const std::size_t list = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(lists.size()) - 1));
    lists[list] = RandomBucketOrder(9, rng);
    ASSERT_TRUE(engine->ReplaceList(list, lists[list]).ok());
    ASSERT_EQ(engine->Matrix(), DistanceMatrix(kind, lists));
  }
  EXPECT_FALSE(engine->ReplaceList(99, lists[0]).ok());
  EXPECT_FALSE(engine->ReplaceList(0, RandomBucketOrder(4, rng)).ok());
}

TEST_P(IncrementalMatrixTest, RejectsInvalidEdits) {
  const MetricKind kind = GetParam();
  std::vector<BucketOrder> lists = {Make(3, {{0}, {1, 2}}),
                                    Make(3, {{0, 1, 2}})};
  StatusOr<IncrementalDistanceMatrix> engine =
      IncrementalDistanceMatrix::Create(kind, lists);
  ASSERT_TRUE(engine.ok());
  const std::vector<std::vector<double>> before = engine->Matrix();
  EXPECT_FALSE(engine->MoveToBucket(7, 0, 0).ok());    // bad list
  EXPECT_FALSE(engine->MoveToBucket(0, 9, 0).ok());    // bad element
  EXPECT_FALSE(engine->MoveToBucket(0, 0, 5).ok());    // bad bucket
  EXPECT_FALSE(engine->MoveToNewBucket(0, 0, 9).ok());
  EXPECT_EQ(engine->Matrix(), before);  // failures change nothing
  EXPECT_EQ(engine->pairs_reevaluated(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IncrementalMatrixTest,
                         ::testing::Values(MetricKind::kKprof,
                                           MetricKind::kFprof,
                                           MetricKind::kKHaus,
                                           MetricKind::kFHaus),
                         [](const ::testing::TestParamInfo<MetricKind>& info) {
                           return std::string(MetricName(info.param));
                         });

TEST(IncrementalMatrixTest, CreateValidation) {
  EXPECT_FALSE(
      IncrementalDistanceMatrix::Create(MetricKind::kKprof, {}).ok());
  EXPECT_FALSE(IncrementalDistanceMatrix::Create(
                   MetricKind::kKprof,
                   {BucketOrder::SingleBucket(3), BucketOrder::SingleBucket(4)})
                   .ok());
  // A one-list corpus is legal: the matrix is the 1x1 zero matrix.
  StatusOr<IncrementalDistanceMatrix> one = IncrementalDistanceMatrix::Create(
      MetricKind::kKHaus, {BucketOrder::SingleBucket(3)});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->Matrix(), std::vector<std::vector<double>>{{0.0}});
}

}  // namespace
}  // namespace rankties
