#include "core/batch_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/best_input.h"
#include "core/cost.h"
#include "gen/mallows.h"
#include "gen/random_orders.h"
#include "ref/per_pair.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rankties {
namespace {

std::vector<BucketOrder> MakeLists(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const Permutation center = Permutation::Random(n, rng);
  std::vector<BucketOrder> lists;
  for (std::size_t i = 0; i < m; ++i) {
    if (i % 2 == 0) {
      lists.push_back(QuantizedMallows(center, 0.6, 4, rng));
    } else {
      lists.push_back(RandomFewValued(n, 3.0, rng));
    }
  }
  return lists;
}

// Restores the default global pool after each test so thread-count tweaks
// never leak into other test cases.
class BatchEngineTest : public testing::Test {
 protected:
  ~BatchEngineTest() override { ThreadPool::SetGlobalThreads(0); }
};

TEST_F(BatchEngineTest, DistanceMatrixMatchesPairwiseComputeMetric) {
  const std::vector<BucketOrder> lists = MakeLists(9, 24, 1);
  for (MetricKind kind : AllMetricKinds()) {
    const auto matrix = DistanceMatrix(kind, lists);
    ASSERT_EQ(matrix.size(), lists.size());
    for (std::size_t i = 0; i < lists.size(); ++i) {
      ASSERT_EQ(matrix[i].size(), lists.size());
      for (std::size_t j = 0; j < lists.size(); ++j) {
        EXPECT_EQ(matrix[i][j], ComputeMetric(kind, lists[i], lists[j]))
            << MetricName(kind) << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

TEST_F(BatchEngineTest, DistanceMatrixIsSymmetricWithZeroDiagonal) {
  const std::vector<BucketOrder> lists = MakeLists(7, 16, 2);
  for (MetricKind kind : AllMetricKinds()) {
    const auto matrix = DistanceMatrix(kind, lists);
    for (std::size_t i = 0; i < lists.size(); ++i) {
      EXPECT_EQ(matrix[i][i], 0.0);
      for (std::size_t j = 0; j < lists.size(); ++j) {
        EXPECT_EQ(matrix[i][j], matrix[j][i]);
      }
    }
  }
}

TEST_F(BatchEngineTest, DegenerateSizes) {
  EXPECT_TRUE(DistanceMatrix(MetricKind::kKprof, {}).empty());
  const auto one =
      DistanceMatrix(MetricKind::kKprof, {BucketOrder::SingleBucket(5)});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0][0], 0.0);
  EXPECT_TRUE(
      DistancesToAll(MetricKind::kFprof, BucketOrder::SingleBucket(3), {})
          .empty());
}

TEST_F(BatchEngineTest, DeterministicAcrossThreadCounts) {
  const std::vector<BucketOrder> lists = MakeLists(12, 40, 3);
  for (MetricKind kind : AllMetricKinds()) {
    ThreadPool::SetGlobalThreads(1);
    const auto reference = DistanceMatrix(kind, lists);
    const auto ref_totals =
        DistancesToAll(kind, lists.front(), lists);
    for (const std::size_t threads : {2u, 3u, 5u, 8u}) {
      ThreadPool::SetGlobalThreads(threads);
      EXPECT_EQ(DistanceMatrix(kind, lists), reference)
          << MetricName(kind) << " with " << threads << " threads";
      EXPECT_EQ(DistancesToAll(kind, lists.front(), lists), ref_totals);
    }
  }
}

// Sweeps m across tile-edge boundaries (below one tile, exact multiples,
// one past a multiple) so every tiling shape — single tile, ragged edge
// tiles, many full tiles — is exercised against both the legacy per-pair
// path and the serial reference.
TEST_F(BatchEngineTest, TiledMatrixMatchesUnpreparedAcrossTileEdges) {
  for (const std::size_t m : {2u, 3u, 5u, 17u, 33u, 65u}) {
    const std::vector<BucketOrder> lists =
        MakeLists(m, 12, 100 + static_cast<std::uint64_t>(m));
    for (MetricKind kind : AllMetricKinds()) {
      ThreadPool::SetGlobalThreads(1);
      const auto reference = ref::DistanceMatrixUnprepared(kind, lists);
      EXPECT_EQ(DistanceMatrix(kind, lists), reference)
          << MetricName(kind) << " m=" << m << " serial";
      ThreadPool::SetGlobalThreads(7);
      EXPECT_EQ(DistanceMatrix(kind, lists), reference)
          << MetricName(kind) << " m=" << m << " 7 threads";
      EXPECT_EQ(ref::DistanceMatrixUnprepared(kind, lists), reference)
          << MetricName(kind) << " m=" << m << " unprepared, 7 threads";
    }
  }
}

TEST_F(BatchEngineTest, DistancesToAllMatchesTotalDistance) {
  const std::vector<BucketOrder> lists = MakeLists(11, 20, 4);
  const BucketOrder candidate = lists[5];
  for (MetricKind kind : AllMetricKinds()) {
    const std::vector<double> distances =
        DistancesToAll(kind, candidate, lists);
    double total = 0.0;
    for (const double d : distances) total += d;
    EXPECT_EQ(total, TotalDistance(kind, candidate, lists));
  }
}

TEST_F(BatchEngineTest, BestInputAggregateAgreesWithSerialRowSums) {
  const std::vector<BucketOrder> inputs = MakeLists(10, 18, 5);
  for (MetricKind kind : AllMetricKinds()) {
    std::size_t expected_index = 0;
    double expected_cost = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      double total = 0.0;
      for (const BucketOrder& other : inputs) {
        total += ComputeMetric(kind, inputs[i], other);
      }
      if (i == 0 || total < expected_cost) {
        expected_index = i;
        expected_cost = total;
      }
    }
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool::SetGlobalThreads(threads);
      const auto best = BestInputAggregate(inputs, kind);
      ASSERT_TRUE(best.ok()) << best.status();
      EXPECT_EQ(best->index, expected_index) << MetricName(kind);
      EXPECT_EQ(best->total_cost, expected_cost) << MetricName(kind);
    }
  }
}

TEST_F(BatchEngineTest, BestInputAggregateRejectsEmptyInput) {
  EXPECT_FALSE(BestInputAggregate({}, MetricKind::kKprof).ok());
}

TEST_F(BatchEngineTest, BestInputAggregateStillPicksFirstMinimizer) {
  // Two identical inputs tie on total cost; the winner must be index 0
  // (the old serial scan's tie-break), at every thread count.
  Rng rng(8);
  const BucketOrder a = RandomFewValued(12, 3.0, rng);
  const BucketOrder b = RandomFewValued(12, 3.0, rng);
  const std::vector<BucketOrder> inputs = {a, a, b};
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    const auto best = BestInputAggregate(inputs, MetricKind::kFprof);
    ASSERT_TRUE(best.ok()) << best.status();
    EXPECT_EQ(best->index, 0u);
  }
}

TEST_F(BatchEngineTest, ParallelForPropagatesExceptions) {
  ThreadPool::SetGlobalThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [](std::size_t lo, std::size_t) {
                    if (lo >= 500) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable after an exception drained the loop.
  std::vector<int> marks(100, 0);
  ParallelFor(0, marks.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) marks[i] = 1;
  });
  for (const int mark : marks) EXPECT_EQ(mark, 1);
}

}  // namespace
}  // namespace rankties
