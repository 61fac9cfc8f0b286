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
/// materialized chunk by chunk through the reader's LRU block cache, and
/// the working set of decoded data is bounded by `OutOfCoreOptions`.
///
/// Determinism guarantee: both engines are bit-identical to their in-RAM
/// counterparts on the same corpus — StreamingMedianRankScoresQuad to
/// MedianRankScoresQuad (the median of a multiset does not depend on
/// accumulation order) and OutOfCoreDistanceMatrix to DistanceMatrix
/// (every slot runs the same kernel with the same global (i, j)
/// argument order). CI gates on the bit-exact match.

struct OutOfCoreOptions {
  /// Memory budget of both engines. The streaming median spends it on its
  /// accumulation buffer (the per-element rank multisets of the active
  /// element block); the distance matrix on its resident decoded lists
  /// (the outer block of chunks plus the one chunk streamed against it).
  /// Small budgets force more passes over the corpus, never a wrong
  /// answer. The matrix's floor is one chunk streamed against one block
  /// chunk; a budget below two chunks runs at that floor. The reader's
  /// decode scratch and the block cache are budgeted separately (writer
  /// chunk shape, Pager::Options).
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

/// The m x m distance matrix of DistanceMatrix as a block-nested-loop join
/// over chunks. Chunk c counts list_count * (16n + 8) + 8 * bucket_count
/// bytes, the size of its BucketOrder arrays, which the directory gives
/// before decoding. The outer block is a run of consecutive chunks: it
/// takes chunks while its bytes plus the largest chunk still to stream fit
/// `memory_budget_bytes` (all remaining chunks when they fit), and always
/// at least one. The block's own pairs run through DistanceMatrix; every
/// later chunk is then read once and streamed against the whole block as
/// one flat block x chunk grid on the pool. A call makes, per block, one
/// load per block chunk plus one per chunk after the block: C loads when
/// every chunk fits, C(C+1)/2 when the budget is below two chunks. Every
/// pair keeps the global (i, j), i < j argument order, so the matrix is
/// bit-identical to DistanceMatrix for every budget. The matrix itself
/// (m^2 doubles) is the caller's output and scales with m, not n.
StatusOr<std::vector<std::vector<double>>> OutOfCoreDistanceMatrix(
    MetricKind kind, store::CorpusReader& reader,
    const OutOfCoreOptions& options = {});

}  // namespace rankties

#endif  // RANKTIES_CORE_OUTOFCORE_H_
