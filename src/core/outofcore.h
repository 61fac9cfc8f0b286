#ifndef RANKTIES_CORE_OUTOFCORE_H_
#define RANKTIES_CORE_OUTOFCORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "rank/bucket_order.h"
#include "store/corpus_reader.h"
#include "util/status.h"

namespace rankties {

/// Shard-at-a-time engines over an on-disk `rankties-corpus-v1` corpus
/// (store/corpus_reader.h). The corpus never has to fit in RAM: lists are
/// materialized one chunk at a time through the reader's LRU block cache,
/// and the per-pass working set is bounded by `OutOfCoreOptions`.
///
/// Determinism guarantee: both engines are bit-identical to their in-RAM
/// counterparts on the same corpus — StreamingMedianRankScoresQuad to
/// MedianRankScoresQuad (the median of a multiset does not depend on
/// accumulation order) and OutOfCoreDistanceMatrix to DistanceMatrix
/// (every slot runs the same kernel with the same global (i, j)
/// argument order). CI gates on the bit-exact match.

struct OutOfCoreOptions {
  /// Budget for the streaming aggregation's accumulation buffer (the
  /// per-element rank multisets of the active element block). Small
  /// budgets force more passes over the corpus, never a wrong answer.
  /// The chunk being decoded and the block cache are budgeted separately
  /// (writer chunk shape, Pager::Options).
  std::size_t memory_budget_bytes = std::size_t{64} << 20;
};

/// Streaming median-rank aggregation (PAPER.md Section 5) over an on-disk
/// corpus: quadrupled median of every element's doubled positions, policy
/// as in core/median_rank.h. Elements are processed in blocks sized to
/// `memory_budget_bytes`; each block streams the corpus chunk by chunk,
/// accumulating an m-entry rank column per element.
StatusOr<std::vector<std::int64_t>> StreamingMedianRankScoresQuad(
    store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options = {});

/// The bucket order induced by the streaming median scores (elements tied
/// iff their medians are equal) — the out-of-core MedianInducedOrder.
StatusOr<BucketOrder> StreamingMedianInducedOrder(
    store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options = {});

/// The m x m distance matrix of DistanceMatrix computed blockwise over
/// chunk pairs: chunk A is loaded once per outer iteration, chunk B is
/// loaded through the cache, and every global pair (i, j), i < j, in the
/// block runs the kernels on the pool lane's scratch. Only the chunk pair's
/// rankings are live at once; the matrix itself (m^2 doubles) is the
/// caller's output and scales with m, not n.
StatusOr<std::vector<std::vector<double>>> OutOfCoreDistanceMatrix(
    MetricKind kind, store::CorpusReader& reader);

}  // namespace rankties

#endif  // RANKTIES_CORE_OUTOFCORE_H_
