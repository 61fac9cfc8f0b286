#include "core/batch_engine.h"

#include <algorithm>
#include <utility>

#include "core/hausdorff.h"
#include "core/prepared.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

namespace {

// Per-shard wall time of the batch loops; together with the `items`
// attribute on the enclosing span this yields items/sec per stage.
obs::Histogram* ShardTimeHistogram() {
  static obs::Histogram* const histogram =
      obs::GetHistogram("batch.shard_ns");
  return histogram;
}

// Tile edge for the triangular tiling of DistanceMatrix. A TxT tile reads
// at most 2T rankings, so T = 32 keeps the per-lane working set a few
// hundred KiB even at n ~ 10^4; shrink T while the tile count undercuts
// ~4 tiles per lane so small matrices still spread across the pool. Tile
// shape never affects values (each slot is computed independently), only
// locality and load balance.
std::size_t TileSizeFor(std::size_t m) {
  const std::size_t lanes = ThreadPool::GlobalThreads();
  std::size_t tile = 32;
  while (tile > 4) {
    const std::size_t rows = (m + tile - 1) / tile;
    // Tile count = (rows+1 choose 2), checked like every pair-count shape.
    if (CheckedChoose2(CheckedAdd(CheckedInt64(rows), 1)) >=
        CheckedInt64(4 * lanes)) {
      break;
    }
    tile /= 2;
  }
  return tile;
}

}  // namespace

PairScratch& LaneScratch() {
  static thread_local PairScratch scratch;
  return scratch;
}

std::vector<std::vector<double>> DistanceMatrix(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  const std::size_t m = lists.size();
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;

  const std::int64_t pairs = CheckedChoose2(CheckedInt64(m));
  obs::FlightSpan span(obs::FlightEventId::kBatchMatrix);
  RANKTIES_OBS_COUNT("batch.metric_evals", pairs);

  // Triangular tiles (a, b), a <= b, over tile rows of edge `tile`; tile
  // (a, a) covers its within-block upper triangle. Every upper-triangle
  // slot belongs to exactly one tile, so parallel writes never collide.
  const std::size_t tile = TileSizeFor(m);
  const std::size_t rows = (m + tile - 1) / tile;
  // Row-major offsets into the flattened tile list: row a holds rows - a
  // tiles (b = a .. rows-1).
  std::vector<std::size_t> tile_offset(rows + 1, 0);
  for (std::size_t a = 0; a < rows; ++a) {
    tile_offset[a + 1] = tile_offset[a] + (rows - a);
  }
  const std::size_t tiles = tile_offset[rows];
  RANKTIES_OBS_COUNT("batch.tiles", static_cast<std::int64_t>(tiles));
  span.SetArgs(static_cast<std::int64_t>(m), pairs,
               static_cast<std::int64_t>(tiles));

  ParallelFor(0, tiles, 1, [&](std::size_t lo, std::size_t hi) {
    obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
    PairScratch& scratch = LaneScratch();
    // Locate the tile row of the first tile in the chunk, then walk.
    std::size_t a =
        static_cast<std::size_t>(std::upper_bound(tile_offset.begin(),
                                                  tile_offset.end(), lo) -
                                 tile_offset.begin()) -
        1;
    for (std::size_t t = lo; t < hi; ++t) {
      while (t >= tile_offset[a + 1]) ++a;
      // Tile-walk contracts: the offset table must land every flat tile id
      // inside tile row a, and the derived tile column must stay in range —
      // otherwise two lanes could write the same matrix slot.
      RANKTIES_DCHECK(a < rows && t >= tile_offset[a]);
      const std::size_t b = a + (t - tile_offset[a]);
      RANKTIES_DCHECK(b >= a && b < rows);
      const std::size_t i_end = std::min(a * tile + tile, m);
      const std::size_t j_begin = b * tile;
      const std::size_t j_end = std::min(j_begin + tile, m);
      RANKTIES_DCHECK(j_begin < m);
      for (std::size_t i = a * tile; i < i_end; ++i) {
        for (std::size_t j = std::max(j_begin, i + 1); j < j_end; ++j) {
          const double d = ComputeMetric(kind, lists[i], lists[j], scratch);
          matrix[i][j] = d;
          matrix[j][i] = d;
        }
      }
    }
  });
  return matrix;
}

std::vector<double> DistancesToAll(MetricKind kind,
                                   const BucketOrder& candidate,
                                   const std::vector<BucketOrder>& lists) {
  std::vector<double> distances(lists.size(), 0.0);
  if (lists.empty()) return distances;
  obs::FlightSpan span(obs::FlightEventId::kBatchDistancesToAll);
  span.SetArgs(static_cast<std::int64_t>(lists.size()));
  RANKTIES_OBS_COUNT("batch.metric_evals",
                     static_cast<std::int64_t>(lists.size()));
  ParallelFor(0, lists.size(), AutoGrain(lists.size()),
              [&](std::size_t lo, std::size_t hi) {
                obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
                PairScratch& scratch = LaneScratch();
                for (std::size_t j = lo; j < hi; ++j) {
                  distances[j] =
                      ComputeMetric(kind, candidate, lists[j], scratch);
                }
              });
  return distances;
}

namespace {

// Relation of the moved element e to a fixed element x in one ranking:
// -1 when e's bucket precedes x's, 0 when tied, +1 when e's bucket follows.
// Pair classes are a pure function of (sigma_rel, tau_rel), so a move only
// re-classifies the pairs whose sigma_rel changed.
int RelOf(const std::vector<BucketIndex>& bucket_of, ElementId e,
          ElementId x) {
  const BucketIndex be = bucket_of[static_cast<std::size_t>(e)];
  const BucketIndex bx = bucket_of[static_cast<std::size_t>(x)];
  if (be < bx) return -1;
  if (be > bx) return 1;
  return 0;
}

// The PairCounts slot that a pair with relations (sigma_rel, tau_rel)
// belongs to, for the orientation where sigma is the first-listed ranking.
std::int64_t& ClassSlot(PairCounts& counts, int sigma_rel, int tau_rel) {
  if (sigma_rel == 0 && tau_rel == 0) return counts.tied_both;
  if (sigma_rel == 0) return counts.tied_sigma_only;
  if (tau_rel == 0) return counts.tied_tau_only;
  return sigma_rel == tau_rel ? counts.concordant : counts.discordant;
}

// Mirror of a stored classification: counts_[j][i] sees the same pairs with
// the roles of sigma and tau swapped, so only the one-sided tie classes
// trade places.
PairCounts Mirrored(const PairCounts& counts) {
  PairCounts mirror = counts;
  std::swap(mirror.tied_sigma_only, mirror.tied_tau_only);
  return mirror;
}

}  // namespace

StatusOr<IncrementalDistanceMatrix> IncrementalDistanceMatrix::Create(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  if (lists.empty()) {
    return Status::InvalidArgument(
        "IncrementalDistanceMatrix needs at least one list");
  }
  const std::size_t n = lists.front().n();
  for (const BucketOrder& order : lists) {
    if (order.n() != n) {
      return Status::InvalidArgument(
          "IncrementalDistanceMatrix needs equal universe sizes");
    }
  }
  return IncrementalDistanceMatrix(kind, lists);
}

IncrementalDistanceMatrix::IncrementalDistanceMatrix(
    MetricKind kind, std::vector<BucketOrder> lists)
    : kind_(kind), lists_(std::move(lists)) {
  const std::size_t m = lists_.size();
  matrix_.assign(m, std::vector<double>(m, 0.0));
  if (UsesPairCounts()) {
    counts_.assign(m, std::vector<PairCounts>(m));
  }
  // Initial fill is serial: the engine's contract is serialized updates, so
  // construction follows the same single-writer discipline (and the upper
  // triangle is computed once and mirrored, like DistanceMatrix).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) EvaluatePair(i, j);
  }
}

bool IncrementalDistanceMatrix::UsesPairCounts() const {
  return kind_ == MetricKind::kKprof || kind_ == MetricKind::kKHaus;
}

double IncrementalDistanceMatrix::ValueFromCounts(
    const PairCounts& counts) const {
  // Same post-processing expressions as the kernels (Kprof and KHausdorff
  // both reduce their exact integer counts this way), so the
  // delta-maintained values are bit-identical to a full recompute.
  if (kind_ == MetricKind::kKprof) {
    return static_cast<double>(TwiceKprofFromCounts(counts)) / 2.0;
  }
  RANKTIES_DCHECK(kind_ == MetricKind::kKHaus);
  return static_cast<double>(KHausdorffFromCounts(counts));
}

void IncrementalDistanceMatrix::EvaluatePair(std::size_t i, std::size_t j) {
  double value;
  if (UsesPairCounts()) {
    const PairCounts counts = ComputePairCounts(lists_[i], lists_[j], scratch_);
    counts_[i][j] = counts;
    counts_[j][i] = Mirrored(counts);
    value = ValueFromCounts(counts);
  } else {
    value = ComputeMetric(kind_, lists_[i], lists_[j], scratch_);
  }
  matrix_[i][j] = value;
  matrix_[j][i] = value;
}

void IncrementalDistanceMatrix::RefreshRow(std::size_t list) {
  const std::size_t m = lists_.size();
  for (std::size_t j = 0; j < m; ++j) {
    if (j != list) EvaluatePair(list, j);
  }
  pairs_reevaluated_ += static_cast<std::int64_t>(m) - 1;
  RANKTIES_OBS_COUNT("incremental.rows_refreshed", 1);
  RANKTIES_OBS_COUNT("incremental.pairs_reevaluated",
                     static_cast<std::int64_t>(m) - 1);
}

void IncrementalDistanceMatrix::ApplyCountDeltas(
    std::size_t list, const std::vector<RelChange>& affected) {
  const std::size_t m = lists_.size();
  std::int64_t cells_touched = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (j == list) continue;
    const std::vector<BucketIndex>& tau_of = lists_[j].bucket_of();
    PairCounts& row_counts = counts_[list][j];
    PairCounts& mirror_counts = counts_[j][list];
    for (const RelChange& change : affected) {
      if (change.old_rel == change.new_rel) continue;
      const BucketIndex te = tau_of[static_cast<std::size_t>(change.e)];
      const BucketIndex tx = tau_of[static_cast<std::size_t>(change.x)];
      const int tau_rel = te < tx ? -1 : (te > tx ? 1 : 0);
      ClassSlot(row_counts, change.old_rel, tau_rel) -= 1;
      ClassSlot(row_counts, change.new_rel, tau_rel) += 1;
      // counts_[j][list] classifies with sigma = list j, whose relations
      // did not change — only the tau side (the mutated list) did.
      ClassSlot(mirror_counts, tau_rel, change.old_rel) -= 1;
      ClassSlot(mirror_counts, tau_rel, change.new_rel) += 1;
      ++cells_touched;
    }
    const double value = ValueFromCounts(row_counts);
    matrix_[list][j] = value;
    matrix_[j][list] = value;
  }
  pairs_reevaluated_ += static_cast<std::int64_t>(m) - 1;
  RANKTIES_OBS_COUNT("incremental.count_delta_cells", cells_touched);
  RANKTIES_OBS_COUNT("incremental.pairs_reevaluated",
                     static_cast<std::int64_t>(m) - 1);
}

Status IncrementalDistanceMatrix::MoveToBucket(std::size_t list, ElementId e,
                                               std::size_t target_bucket) {
  if (list >= lists_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  BucketOrder& ranking = lists_[list];
  if (e < 0 || static_cast<std::size_t>(e) >= ranking.n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (target_bucket >= ranking.num_buckets()) {
    return Status::InvalidArgument("target bucket out of range");
  }
  const std::size_t source = static_cast<std::size_t>(
      ranking.bucket_of()[static_cast<std::size_t>(e)]);
  // A no-op edit costs nothing on either maintenance path (the
  // pairs-reevaluated accounting would otherwise depend on the metric).
  if (source == target_bucket) return Status::Ok();
  // Snapshot the relations that can change — pairs (e, x) with x in the
  // bucket span [min(src, dst), max(src, dst)] — before the edit.
  if (UsesPairCounts()) {
    CaptureAffected(ranking, e, std::min(source, target_bucket),
                    std::max(source, target_bucket));
  }
  Status moved = ranking.MoveToBucket(e, target_bucket);
  if (!moved.ok()) return moved;
  FinishMove(list, e);
  return Status::Ok();
}

Status IncrementalDistanceMatrix::MoveToNewBucket(std::size_t list,
                                                  ElementId e,
                                                  std::size_t before_bucket) {
  if (list >= lists_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  BucketOrder& ranking = lists_[list];
  if (e < 0 || static_cast<std::size_t>(e) >= ranking.n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (before_bucket > ranking.num_buckets()) {
    return Status::InvalidArgument("insertion position out of range");
  }
  const std::size_t source = static_cast<std::size_t>(
      ranking.bucket_of()[static_cast<std::size_t>(e)]);
  const std::size_t source_size =
      ranking.bucket_offset()[source + 1] - ranking.bucket_offset()[source];
  // Already a singleton at this spot: no-op on either maintenance path.
  if (source_size == 1 &&
      (before_bucket == source || before_bucket == source + 1)) {
    return Status::Ok();
  }
  // Relations change only against elements e crosses: buckets [pos, src]
  // when moving ahead, (src, pos) when moving behind.
  if (UsesPairCounts()) {
    CaptureAffected(ranking, e, std::min(source, before_bucket),
                    before_bucket > source ? before_bucket - 1 : source);
  }
  Status moved = ranking.MoveToNewBucket(e, before_bucket);
  if (!moved.ok()) return moved;
  FinishMove(list, e);
  return Status::Ok();
}

void IncrementalDistanceMatrix::FinishMove(std::size_t list, ElementId e) {
  if (UsesPairCounts()) {
    FinishAffected(lists_[list], e);
    ApplyCountDeltas(list, affected_scratch_);
  } else {
    RefreshRow(list);
  }
  obs::FlightRecord(obs::FlightEventId::kIncrementalMove,
                    static_cast<std::int64_t>(list),
                    static_cast<std::int64_t>(e),
                    static_cast<std::int64_t>(lists_.size()) - 1);
}

void IncrementalDistanceMatrix::CaptureAffected(const BucketOrder& ranking,
                                                ElementId e, std::size_t lo,
                                                std::size_t hi) {
  affected_scratch_.clear();
  const std::vector<ElementId>& by_bucket = ranking.by_bucket();
  const std::vector<std::size_t>& offset = ranking.bucket_offset();
  const std::vector<BucketIndex>& bucket_of = ranking.bucket_of();
  for (std::size_t slot = offset[lo]; slot < offset[hi + 1]; ++slot) {
    const ElementId x = by_bucket[slot];
    if (x == e) continue;
    affected_scratch_.push_back(
        RelChange{e, x, RelOf(bucket_of, e, x), 0});
  }
}

void IncrementalDistanceMatrix::FinishAffected(const BucketOrder& ranking,
                                               ElementId e) {
  // Bucket indices may have shifted (a collapsed source bucket renumbers
  // the suffix) but shifts apply to both sides of every comparison, so the
  // post-edit bucket_of still yields the correct relation signs.
  const std::vector<BucketIndex>& bucket_of = ranking.bucket_of();
  for (RelChange& change : affected_scratch_) {
    change.new_rel = RelOf(bucket_of, e, change.x);
  }
}

Status IncrementalDistanceMatrix::ReplaceList(std::size_t list,
                                              const BucketOrder& order) {
  if (list >= lists_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  if (order.n() != n()) {
    return Status::InvalidArgument(
        "ReplaceList needs the corpus universe size");
  }
  lists_[list] = order;
  RefreshRow(list);
  obs::FlightRecord(obs::FlightEventId::kIncrementalReplace,
                    static_cast<std::int64_t>(list),
                    static_cast<std::int64_t>(lists_.size()) - 1);
  return Status::Ok();
}

}  // namespace rankties
