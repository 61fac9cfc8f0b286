// Bit-identity tests for the out-of-core engines (core/outofcore.h): on
// the same corpus, the streaming median-rank aggregation must equal
// MedianRankScoresQuad / MedianInducedOrder and the blocked distance
// matrix must equal DistanceMatrix, bit for bit, even when tiny budgets
// force many passes and tiny blocks force heavy cache traffic.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/median_rank.h"
#include "core/outofcore.h"
#include "gen/random_orders.h"
#include "gen/score_dist.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "util/rng.h"

namespace rankties {
namespace {

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<BucketOrder> MixedCorpus(std::size_t m, std::size_t n,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> corpus;
  corpus.reserve(m);
  SkewedOrderConfig skew;
  for (std::size_t i = 0; i < m; ++i) {
    if (i % 3 == 0) {
      // Skewed quantized scores: heavy ties, the out-of-core bench shape.
      StatusOr<BucketOrder> order = SkewedScoreOrder(n, skew, rng);
      EXPECT_TRUE(order.ok());
      corpus.push_back(std::move(*order));
    } else {
      corpus.push_back(RandomBucketOrder(n, rng));
    }
  }
  return corpus;
}

store::CorpusReader WriteAndOpen(const std::string& name,
                                 const std::vector<BucketOrder>& corpus,
                                 std::uint64_t lists_per_chunk,
                                 std::size_t cache_bytes) {
  const std::string path = TestPath(name);
  store::CorpusWriter::Options options;
  options.block_size = 256;  // Small blocks: real cache churn at test size.
  options.lists_per_chunk = lists_per_chunk;
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, corpus.front().n(), options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const BucketOrder& order : corpus) {
    EXPECT_TRUE(writer->Append(order).ok());
  }
  EXPECT_TRUE(writer->Finish().ok());

  store::Pager::Options cache;
  cache.capacity_bytes = cache_bytes;
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, cache);
  EXPECT_TRUE(reader.ok()) << reader.status();
  return std::move(*reader);
}

constexpr MetricKind kAllKinds[] = {MetricKind::kKprof, MetricKind::kFprof,
                                    MetricKind::kKHaus, MetricKind::kFHaus};

// The decoded size of chunk c as OutOfCoreDistanceMatrix documents it:
// list_count * (16n + 8) + 8 * bucket_count.
std::uint64_t ChunkBytes(const store::CorpusReader& reader, std::size_t c) {
  const store::ChunkEntry& entry = reader.chunk(c);
  return entry.list_count * (16 * reader.n() + 8) + 8 * entry.bucket_count;
}

// Runs every metric out of core at `budget` and checks each matrix bit for
// bit against DistanceMatrix. With `expected_loads` >= 0 (callers turn the
// obs layer on), each call must also make exactly that many chunk loads.
void ExpectBitExactAtBudget(const std::vector<BucketOrder>& corpus,
                            store::CorpusReader& reader, std::uint64_t budget,
                            std::int64_t expected_loads) {
  OutOfCoreOptions options;
  options.memory_budget_bytes = budget;
  const obs::Counter* loads = obs::GetCounter("outofcore.chunk_loads");
  for (const MetricKind kind : kAllKinds) {
    const std::int64_t before = loads->Value();
    StatusOr<std::vector<std::vector<double>>> blocked =
        OutOfCoreDistanceMatrix(kind, reader, options);
    ASSERT_TRUE(blocked.ok()) << blocked.status();
    EXPECT_EQ(*blocked, DistanceMatrix(kind, corpus))
        << MetricName(kind) << " at budget " << budget;
    if (expected_loads >= 0) {
      EXPECT_EQ(loads->Value() - before, expected_loads)
          << MetricName(kind) << " at budget " << budget;
    }
  }
}

TEST(StreamingMedianTest, MatchesInRamForAllPolicies) {
  const std::vector<BucketOrder> corpus = MixedCorpus(14, 60, 21);
  store::CorpusReader reader =
      WriteAndOpen("streaming_median.corpus", corpus, 4, 2048);

  for (const MedianPolicy policy :
       {MedianPolicy::kLower, MedianPolicy::kUpper, MedianPolicy::kAverage}) {
    StatusOr<std::vector<std::int64_t>> in_ram =
        MedianRankScoresQuad(corpus, policy);
    ASSERT_TRUE(in_ram.ok());

    // A ~1KB budget forces multiple element passes over the corpus.
    OutOfCoreOptions options;
    options.memory_budget_bytes = 14 * sizeof(std::int64_t) * 16;
    StatusOr<std::vector<std::int64_t>> streamed =
        StreamingMedianRankScoresQuad(reader, policy, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(*streamed, *in_ram);

    StatusOr<BucketOrder> induced_in_ram = MedianInducedOrder(corpus, policy);
    ASSERT_TRUE(induced_in_ram.ok());
    StatusOr<BucketOrder> induced_streamed =
        StreamingMedianInducedOrder(reader, policy, options);
    ASSERT_TRUE(induced_streamed.ok());
    EXPECT_EQ(*induced_streamed, *induced_in_ram);
  }
}

TEST(StreamingMedianTest, ExtremeBudgetsAgree) {
  const std::vector<BucketOrder> corpus = MixedCorpus(9, 40, 22);
  store::CorpusReader reader =
      WriteAndOpen("streaming_median_budgets.corpus", corpus, 2, 1024);
  StatusOr<std::vector<std::int64_t>> in_ram =
      MedianRankScoresQuad(corpus, MedianPolicy::kAverage);
  ASSERT_TRUE(in_ram.ok());

  // One element per pass (minimum budget) and everything in one pass
  // (huge budget) must both match.
  OutOfCoreOptions one_element;
  one_element.memory_budget_bytes = 1;
  StatusOr<std::vector<std::int64_t>> tiny = StreamingMedianRankScoresQuad(
      reader, MedianPolicy::kAverage, one_element);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*tiny, *in_ram);

  OutOfCoreOptions huge;
  huge.memory_budget_bytes = std::size_t{1} << 30;
  StatusOr<std::vector<std::int64_t>> single_pass =
      StreamingMedianRankScoresQuad(reader, MedianPolicy::kAverage, huge);
  ASSERT_TRUE(single_pass.ok());
  EXPECT_EQ(*single_pass, *in_ram);
}

TEST(OutOfCoreMatrixTest, MatchesInRamForAllMetricKinds) {
  const std::vector<BucketOrder> corpus = MixedCorpus(13, 48, 23);
  store::CorpusReader reader =
      WriteAndOpen("outofcore_matrix.corpus", corpus, 5, 2048);
  ExpectBitExactAtBudget(corpus, reader,
                         OutOfCoreOptions{}.memory_budget_bytes, -1);
}

// Budgets picked from the per-chunk figure so an 8-chunk corpus runs in
// blocks of 1, 3 and 8 chunks. A call loads, per block, its chunks plus
// every chunk after it: 8 + 7 + ... + 1 = 36, (3 + 5) + (3 + 2) + 2 = 15,
// and 8.
TEST(OutOfCoreMatrixTest, BlockScheduleFollowsTheBudget) {
  const std::vector<BucketOrder> corpus = MixedCorpus(32, 48, 26);
  store::CorpusReader reader =
      WriteAndOpen("outofcore_blocks.corpus", corpus, 4, 2048);
  ASSERT_EQ(reader.num_chunks(), 8u);
  std::vector<std::uint64_t> bytes;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    bytes.push_back(ChunkBytes(reader, c));
  }
  // What a block [a, e) holds while it streams its largest later chunk.
  const auto resident = [&](std::size_t a, std::size_t e) {
    std::uint64_t held = 0;
    for (std::size_t c = a; c < e; ++c) held += bytes[c];
    std::uint64_t largest = 0;
    for (std::size_t c = e; c < bytes.size(); ++c) {
      largest = std::max(largest, bytes[c]);
    }
    return held + largest;
  };
  obs::SetEnabled(true);

  // Below two chunks: every block is one chunk, C(C+1)/2 loads.
  const std::uint64_t smallest = *std::min_element(bytes.begin(), bytes.end());
  ExpectBitExactAtBudget(corpus, reader, 2 * smallest - 1, 36);

  // Blocks [0, 3), [3, 6), [6, 8): each fits with its largest later chunk,
  // and one more chunk would not.
  const std::uint64_t three = std::max(
      {resident(0, 3), resident(3, 6), resident(6, 8)});
  ASSERT_LT(three, resident(0, 4));
  ASSERT_LT(three, resident(3, 7));
  ExpectBitExactAtBudget(corpus, reader, three, 15);

  // Every chunk fits: one block, one load per chunk. One byte less and
  // the first block stops at six chunks: (6 + 2) + 2 = 10.
  ExpectBitExactAtBudget(corpus, reader, resident(0, 8), 8);
  ExpectBitExactAtBudget(corpus, reader, resident(0, 8) - 1, 10);
  ExpectBitExactAtBudget(corpus, reader,
                         OutOfCoreOptions{}.memory_budget_bytes, 8);
  obs::SetEnabled(false);
}

TEST(OutOfCoreMatrixTest, ShortLastChunkMatchesInRamAtEveryBudget) {
  // 3 + 3 + ... + 3 + 1 lists: the last chunk holds a single list.
  const std::vector<BucketOrder> corpus = MixedCorpus(22, 40, 27);
  store::CorpusReader reader =
      WriteAndOpen("outofcore_short_tail.corpus", corpus, 3, 1024);
  ASSERT_EQ(reader.num_chunks(), 8u);
  ASSERT_EQ(reader.chunk(7).list_count, 1u);
  const std::uint64_t chunk = ChunkBytes(reader, 0);
  for (const std::uint64_t budget :
       {std::uint64_t{1}, 2 * chunk, 3 * chunk, 5 * chunk,
        std::uint64_t{1} << 30}) {
    ExpectBitExactAtBudget(corpus, reader, budget, -1);
  }
}

TEST(OutOfCoreMatrixTest, SingleListCorpusIsZeroMatrix) {
  Rng rng(24);
  const std::vector<BucketOrder> corpus = {RandomBucketOrder(16, rng)};
  store::CorpusReader reader =
      WriteAndOpen("outofcore_single.corpus", corpus, 4, 1024);
  StatusOr<std::vector<std::vector<double>>> matrix =
      OutOfCoreDistanceMatrix(MetricKind::kKprof, reader);
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->size(), 1u);
  EXPECT_EQ((*matrix)[0][0], 0.0);
}

TEST(OutOfCoreTest, CacheStatsAreLive) {
  const std::vector<BucketOrder> corpus = MixedCorpus(12, 48, 25);
  // Cache budget far below the corpus footprint: streaming must both miss
  // (capacity evictions) and hit (neighboring lists share blocks).
  store::CorpusReader reader =
      WriteAndOpen("outofcore_stats.corpus", corpus, 3, 1024);
  OutOfCoreOptions options;
  options.memory_budget_bytes = 12 * sizeof(std::int64_t) * 8;
  ASSERT_TRUE(
      StreamingMedianRankScoresQuad(reader, MedianPolicy::kLower, options)
          .ok());
  const store::Pager& pager = reader.pager();
  EXPECT_GT(pager.misses(), 0);
  EXPECT_GT(pager.hits(), 0);
  EXPECT_GT(pager.evictions(), 0);
  EXPECT_GT(pager.bytes_read(), 0);
  // The pager never holds more than its capacity in unpinned frames plus
  // the reader's transient pins (one block at a time).
  EXPECT_LE(pager.peak_resident_blocks(),
            static_cast<std::int64_t>(pager.capacity_blocks()) + 1);
}

}  // namespace
}  // namespace rankties
