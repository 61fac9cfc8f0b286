#include "core/outofcore.h"

#include <algorithm>
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
    // (MedianQuad sorts), so chunk-at-a-time filling is bit-identical to
    // the in-RAM list-order loop.
    ParallelFor(e0, e1, 256, [&](std::size_t lo, std::size_t hi) {
      std::vector<std::int64_t> column(m);
      for (std::size_t e = lo; e < hi; ++e) {
        std::copy(ranks.begin() + static_cast<std::ptrdiff_t>((e - e0) * m),
                  ranks.begin() + static_cast<std::ptrdiff_t>((e - e0 + 1) * m),
                  column.begin());
        scores[e] = MedianQuad(column, policy);
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
    MetricKind kind, store::CorpusReader& reader) {
  const std::size_t m = static_cast<std::size_t>(reader.num_lists());
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;
  obs::FlightSpan span(obs::FlightEventId::kOutOfCoreMatrix);
  span.SetArgs(static_cast<std::int64_t>(m),
               static_cast<std::int64_t>(m) *
                   static_cast<std::int64_t>(m - 1) / 2);

  const std::size_t chunks = reader.num_chunks();
  std::vector<BucketOrder> lists_a;
  std::vector<BucketOrder> lists_b;
  for (std::size_t a = 0; a < chunks; ++a) {
    Status s = reader.ReadChunk(a, &lists_a);
    if (!s.ok()) return s;
    RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
    const std::size_t first_a =
        static_cast<std::size_t>(reader.chunk(a).first_list);

    // Diagonal block: within-chunk upper triangle. Same kind dispatch and
    // argument order as DistanceMatrix (sigma = global list i, tau = global
    // list j, i < j), which is what makes the blocked matrix bit-identical.
    ParallelFor(0, lists_a.size(), 1, [&](std::size_t lo, std::size_t hi) {
      PairScratch& scratch = LaneScratch();
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = i + 1; j < lists_a.size(); ++j) {
          const double d =
              ComputeMetric(kind, lists_a[i], lists_a[j], scratch);
          matrix[first_a + i][first_a + j] = d;
          matrix[first_a + j][first_a + i] = d;
        }
      }
    });
    RANKTIES_OBS_COUNT(
        "outofcore.metric_evals",
        static_cast<std::int64_t>(lists_a.size() * (lists_a.size() - 1) / 2));

    // Cross blocks: chunk a stays loaded while b sweeps the tail.
    for (std::size_t b = a + 1; b < chunks; ++b) {
      s = reader.ReadChunk(b, &lists_b);
      if (!s.ok()) return s;
      RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
      const std::size_t first_b =
          static_cast<std::size_t>(reader.chunk(b).first_list);
      ParallelFor(0, lists_a.size(), 1, [&](std::size_t lo, std::size_t hi) {
        PairScratch& scratch = LaneScratch();
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 0; j < lists_b.size(); ++j) {
            // Global i < global j always holds across chunks a < b, so
            // sigma/tau order matches the in-RAM upper triangle.
            const double d =
                ComputeMetric(kind, lists_a[i], lists_b[j], scratch);
            matrix[first_a + i][first_b + j] = d;
            matrix[first_b + j][first_a + i] = d;
          }
        }
      });
      RANKTIES_OBS_COUNT(
          "outofcore.metric_evals",
          static_cast<std::int64_t>(lists_a.size() * lists_b.size()));
    }
  }
  return matrix;
}

}  // namespace rankties
