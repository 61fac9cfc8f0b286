#include "core/outofcore.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "core/batch_engine.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

StatusOr<std::vector<std::int64_t>> StreamingMedianRankScoresQuad(
    store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options) {
  const std::size_t n = reader.n();
  const std::size_t m = static_cast<std::size_t>(reader.num_lists());
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  obs::FlightSpan span(obs::FlightEventId::kOutOfCoreMedianScores);
  span.SetArgs(static_cast<std::int64_t>(m), static_cast<std::int64_t>(n));

  // Element-block size: the accumulation buffer holds one m-entry rank
  // column per active element, so a block of E elements costs E*m*8 bytes.
  const std::size_t block_elems = std::clamp<std::size_t>(
      options.memory_budget_bytes / (m * sizeof(std::int64_t)), 1, n);

  std::vector<std::int64_t> scores(n);
  std::vector<std::int64_t> ranks(block_elems * m);
  std::vector<BucketOrder> chunk;
  for (std::size_t e0 = 0; e0 < n; e0 += block_elems) {
    const std::size_t e1 = std::min(e0 + block_elems, n);
    RANKTIES_OBS_COUNT("outofcore.element_passes", 1);
    // One pass over the corpus: every chunk contributes its lists' doubled
    // positions for the active element block.
    for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
      Status s = reader.ReadChunk(c, &chunk);
      if (!s.ok()) return s;
      RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
      const std::size_t first =
          static_cast<std::size_t>(reader.chunk(c).first_list);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const BucketOrder& order = chunk[i];
        for (std::size_t e = e0; e < e1; ++e) {
          ranks[(e - e0) * m + (first + i)] =
              order.TwicePosition(static_cast<ElementId>(e));
        }
      }
    }
    // The median of a multiset is accumulation-order-independent
    // (MedianQuad selects in place on the element's row, which the next
    // pass overwrites), so chunk-at-a-time filling is bit-identical to the
    // in-RAM list-order loop.
    ParallelFor(e0, e1, 256, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        scores[e] =
            MedianQuad(std::span(ranks).subspan((e - e0) * m, m), policy);
      }
    });
  }
  return scores;
}

StatusOr<BucketOrder> StreamingMedianInducedOrder(
    store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options) {
  StatusOr<std::vector<std::int64_t>> scores =
      StreamingMedianRankScoresQuad(reader, policy, options);
  if (!scores.ok()) return scores.status();
  return BucketOrder::FromIntKeys(*scores);
}

StatusOr<std::vector<std::vector<double>>> OutOfCoreDistanceMatrix(
    MetricKind kind, store::CorpusReader& reader,
    const OutOfCoreOptions& options) {
  const std::size_t m = static_cast<std::size_t>(reader.num_lists());
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;
  obs::FlightSpan span(obs::FlightEventId::kOutOfCoreMatrix);
  span.SetArgs(static_cast<std::int64_t>(m),
               static_cast<std::int64_t>(m) *
                   static_cast<std::int64_t>(m - 1) / 2);

  // Decoded chunk sizes from the directory: each list's BucketOrder holds
  // bucket_of, by_bucket and twice_pos (16 bytes per element) and
  // bucket_offset (8 bytes per bucket, plus one). Open bounds bucket_count
  // by list_count * n, so a figure is at most six times the chunk's
  // payload bytes. largest_from[c] is the largest chunk in [c, chunks):
  // what a block that ends at c streams.
  const std::size_t chunks = reader.num_chunks();
  const std::uint64_t per_list =
      16 * static_cast<std::uint64_t>(reader.n()) + 8;
  std::vector<std::uint64_t> chunk_bytes(chunks);
  std::vector<std::uint64_t> largest_from(chunks + 1, 0);
  for (std::size_t c = chunks; c-- > 0;) {
    const store::ChunkEntry& entry = reader.chunk(c);
    chunk_bytes[c] = entry.list_count * per_list + 8 * entry.bucket_count;
    largest_from[c] = std::max(chunk_bytes[c], largest_from[c + 1]);
  }

  std::vector<BucketOrder> block;
  std::vector<BucketOrder> streamed;
  for (std::size_t a = 0; a < chunks;) {
    // Block-nested-loop join: the block [a, e) takes chunks while its
    // bytes plus the largest chunk still to stream fit the budget (that
    // sum only grows with e), and always holds at least chunk a.
    std::size_t e = a + 1;
    std::uint64_t resident = chunk_bytes[a];
    while (e < chunks && resident + chunk_bytes[e] + largest_from[e + 1] <=
                             options.memory_budget_bytes) {
      resident += chunk_bytes[e];
      ++e;
    }
    block.clear();
    for (std::size_t c = a; c < e; ++c) {
      Status s = reader.ReadChunk(c, &streamed);
      if (!s.ok()) return s;
      RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
      std::move(streamed.begin(), streamed.end(), std::back_inserter(block));
    }
    const std::size_t first =
        static_cast<std::size_t>(reader.chunk(a).first_list);

    // The block's own pairs: DistanceMatrix's tiler, all lanes.
    const std::vector<std::vector<double>> inner = DistanceMatrix(kind, block);
    for (std::size_t i = 0; i < block.size(); ++i) {
      std::copy(inner[i].begin(), inner[i].end(),
                matrix[first + i].begin() + static_cast<std::ptrdiff_t>(first));
    }
    RANKTIES_OBS_COUNT(
        "outofcore.metric_evals",
        static_cast<std::int64_t>(block.size() * (block.size() - 1) / 2));

    // Every later chunk is read once and streamed against the whole block
    // as one flat block x chunk grid, so parallelism scales with the cell
    // count. Block lists precede chunk b, so sigma = global list i and
    // tau = global list j, i < j: DistanceMatrix's argument order, which
    // is what makes the matrix bit-identical.
    for (std::size_t b = e; b < chunks; ++b) {
      Status s = reader.ReadChunk(b, &streamed);
      if (!s.ok()) return s;
      RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
      const std::size_t first_b =
          static_cast<std::size_t>(reader.chunk(b).first_list);
      const std::size_t cols = streamed.size();
      const std::size_t cells = block.size() * cols;
      ParallelFor(0, cells, AutoGrain(cells),
                  [&](std::size_t lo, std::size_t hi) {
                    PairScratch& scratch = LaneScratch();
                    for (std::size_t t = lo; t < hi; ++t) {
                      const std::size_t i = t / cols;
                      const std::size_t j = t % cols;
                      const double d = ComputeMetric(kind, block[i],
                                                     streamed[j], scratch);
                      matrix[first + i][first_b + j] = d;
                      matrix[first_b + j][first + i] = d;
                    }
                  });
      RANKTIES_OBS_COUNT("outofcore.metric_evals",
                         static_cast<std::int64_t>(cells));
    }
    a = e;
  }
  return matrix;
}

}  // namespace rankties
