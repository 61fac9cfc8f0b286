#ifndef RANKTIES_CORE_PREPARED_H_
#define RANKTIES_CORE_PREPARED_H_

#include <cstdint>
#include <vector>

#include "core/pair_counts.h"
#include "rank/bucket_order.h"
#include "rank/element.h"
#include "util/status.h"

namespace rankties {

/// The prepared-ranking layer: allocation-free Kendall-family kernels.
///
/// Every legacy ComputePairCounts call pays per-call heap traffic — an
/// unordered_map joint histogram, a freshly allocated element vector sorted
/// with a comparison lambda, and a new Fenwick tree — even though each
/// ranking's bucket structure never changes. All-pairs workloads
/// (DistanceMatrix, Kemeny score grids, MEDRANK validation) repeat that
/// cost O(m^2) times.
///
/// `PreparedRanking` freezes a BucketOrder once, in O(n), into dense flat
/// arrays; the kernels below then classify the pairs of two prepared
/// rankings using only a caller-owned `PairScratch`, performing **zero heap
/// allocations** once the scratch has grown to the workload's high-water
/// mark (asserted by tests/prepared_test.cc with an operator-new counting
/// hook). The kernels are bit-identical to the legacy BucketOrder paths:
/// both funnel through the same FromCounts post-processing
/// (TwiceKprofFromCounts, KHausdorffFromCounts, KendallPFromCounts) on
/// exact integer counts, and the fuzz harness cross-checks them
/// pair-for-pair across every adversarial family.

/// An O(n) freeze of a BucketOrder with O(affected-range) delta operations.
/// Snapshot semantics: the prepared form owns its arrays and stays valid
/// after the source BucketOrder is destroyed. A serving workload mutates a
/// frozen ranking in place (MoveToBucket / MoveToNewBucket / InsertItem /
/// EraseItem) instead of re-freezing from scratch; the delta paths maintain
/// every invariant of the freeze bit-exactly (DESIGN.md §8 spells out which
/// prefix of the flat arrays survives each edit), and the mutation-trace
/// fuzz family asserts array-level equality against a fresh freeze after
/// every step.
class PreparedRanking {
 public:
  /// An empty-domain prepared ranking (n = 0).
  PreparedRanking() = default;

  /// Freezes `order`: one pass over its buckets, no comparison sort.
  explicit PreparedRanking(const BucketOrder& order);

  /// Movable and copyable; moves are noexcept so containers of prepared
  /// rankings relocate instead of copying when they grow
  /// (clang-tidy performance-noexcept-move-constructor).
  PreparedRanking(const PreparedRanking&) = default;
  PreparedRanking& operator=(const PreparedRanking&) = default;
  PreparedRanking(PreparedRanking&&) noexcept = default;
  PreparedRanking& operator=(PreparedRanking&&) noexcept = default;
  ~PreparedRanking() = default;

  [[nodiscard]] std::size_t n() const { return bucket_of_.size(); }
  [[nodiscard]] std::size_t num_buckets() const {
    return bucket_offset_.size() - 1;
  }

  /// Number of unordered pairs tied in this ranking
  /// (sum over buckets of |B| choose 2), precomputed at freeze time.
  [[nodiscard]] std::int64_t tied_pairs() const { return tied_pairs_; }

  /// bucket_of()[e] = index of e's bucket (dense, element-indexed).
  const std::vector<BucketIndex>& bucket_of() const { return bucket_of_; }

  /// Elements counting-sorted by bucket, front bucket first — replaces the
  /// per-pair std::sort of the legacy engine.
  const std::vector<ElementId>& by_bucket() const { return by_bucket_; }

  /// bucket_offset()[b] .. bucket_offset()[b+1] delimit bucket b inside
  /// by_bucket(); size num_buckets()+1.
  const std::vector<std::size_t>& bucket_offset() const {
    return bucket_offset_;
  }

  /// twice_position()[e] = 2*sigma(e) (exact doubled position, paper §2) —
  /// the Fprof fast path reads the two flat vectors directly.
  const std::vector<std::int64_t>& twice_position() const {
    return twice_pos_;
  }

  /// --- Delta operations (incremental engines) --------------------------
  ///
  /// Each edit re-freezes only the affected range of the flat arrays and
  /// leaves the result indistinguishable from `PreparedRanking(edited
  /// order)` — array-for-array, bit-for-bit (fuzzed by the mutation-trace
  /// family). Costs below are in touched array slots; `t` is the bucket
  /// count. Failed calls leave the ranking unchanged.

  /// Moves element `e` into the existing bucket `target_bucket` (current
  /// 0-based index). A no-op when `e` already lives there. If the source
  /// bucket empties it is removed and later buckets shift down one index
  /// (an O(suffix) reindex — the only case where a move touches slots
  /// outside [min(src, dst), max(src, dst)]). Cost: O(affected bucket
  /// range) otherwise.
  [[nodiscard]] Status MoveToBucket(ElementId e, std::size_t target_bucket);

  /// Moves element `e` into a new singleton bucket inserted immediately
  /// before the current bucket `before_bucket` (`before_bucket ==
  /// num_buckets()` appends a last bucket). A no-op when `e` is already a
  /// singleton at that spot. When the net bucket count changes (the source
  /// bucket survives), every later bucket shifts index: O(suffix) reindex;
  /// relocating a singleton bucket stays O(affected range).
  [[nodiscard]] Status MoveToNewBucket(ElementId e,
                                       std::size_t before_bucket);

  /// Grows the domain by one: the new element gets id n() and joins the
  /// existing bucket `bucket`. Positions of buckets >= `bucket` shift, so
  /// the cost is O(suffix after the bucket); the prefix survives intact.
  [[nodiscard]] Status InsertItem(std::size_t bucket);

  /// Shrinks the domain by one: removes element `e`; every element with id
  /// > e is renumbered down by one (the domain stays dense {0..n-2}).
  /// Renumbering forces a full O(n) pass — the one edit where no suffix of
  /// the element-indexed arrays survives — but still avoids the
  /// O(lists * n log n) downstream recompute the delta engines exist to
  /// kill. An emptied bucket is removed as in MoveToBucket.
  [[nodiscard]] Status EraseItem(ElementId e);

  /// Thaws the frozen arrays back into a BucketOrder (O(n)). Used by the
  /// differential harness to compare a delta-edited ranking against a
  /// from-scratch rebuild, and by callers that need to hand an edited
  /// ranking to a legacy BucketOrder API.
  [[nodiscard]] BucketOrder ToBucketOrder() const;

 private:
  /// Rewrites twice_pos_ for every element of buckets [lo, hi] from the
  /// identity 2*pos(B_b) = bucket_offset_[b] + bucket_offset_[b+1] + 1.
  void RecomputePositions(std::size_t lo, std::size_t hi);

  /// Removes the (empty) bucket `b`: erases its offset entry and shifts
  /// bucket_of_ down for every element of later buckets. O(suffix).
  void CollapseEmptyBucket(std::size_t b);

  /// Slot of `e` inside its bucket's by_bucket_ range (elements ascend by
  /// id within a bucket, so this is a binary search).
  std::size_t SlotOf(ElementId e) const;
  std::vector<BucketIndex> bucket_of_;      // element -> bucket
  std::vector<ElementId> by_bucket_;        // elements grouped by bucket
  std::vector<std::size_t> bucket_offset_{0};  // bucket -> by_bucket_ range
  std::vector<std::int64_t> twice_pos_;     // element -> 2*pos
  std::int64_t tied_pairs_ = 0;
};

/// Reusable per-thread workspace for the prepared kernels. Buffers only
/// ever grow (to the largest n / bucket count seen), so a warm scratch
/// makes every subsequent kernel call allocation-free regardless of how
/// the inputs' sizes vary call to call. Not thread-safe: one scratch per
/// thread (core/batch_engine keeps one per pool lane).
class PairScratch {
 public:
  PairScratch() = default;

  PairScratch(const PairScratch&) = delete;
  PairScratch& operator=(const PairScratch&) = delete;
  /// Move-only: a warm scratch can be handed between owners (e.g. pool
  /// lane storage) without re-paying the grow-to-high-water cost.
  PairScratch(PairScratch&&) noexcept = default;
  PairScratch& operator=(PairScratch&&) noexcept = default;
  ~PairScratch() = default;

  /// Grows all buffers to the high-water mark for rankings with up to `n`
  /// elements and `buckets` buckets per side, so that subsequent kernel
  /// calls within those bounds allocate nothing. Optional — the kernels
  /// grow the scratch on demand.
  void Reserve(std::size_t n, std::size_t buckets);

 private:
  friend PairCounts ComputePairCounts(const PreparedRanking& sigma,
                                      const PreparedRanking& tau,
                                      PairScratch& scratch);
  friend std::int64_t TwiceFHausdorff(const PreparedRanking& sigma,
                                      const PreparedRanking& tau,
                                      PairScratch& scratch);

  // Per-tau-bucket accumulator: a plain prefix array in flat-histogram
  // mode, a Fenwick tree (slot 0 unused) in the sorted fallback; the FHaus
  // kernel reuses it as the per-tau-bucket column-prefix array.
  std::vector<std::int64_t> fenwick_;
  // Flat joint histogram, indexed sigma_bucket * t_tau + tau_bucket; cells
  // are re-zeroed as the row scan consumes them, so all entries are zero
  // outside a call.
  std::vector<std::int64_t> joint_counts_;
  // Fallback buffer for the sort-and-run-count joint histogram used when
  // t_sigma * t_tau is large relative to n.
  std::vector<std::int64_t> joint_keys_;
  // Staging buffer for the SIMD joint-key computation in flat-histogram
  // mode (keys fit in int32 there: the key space is capped at 2^20).
  std::vector<std::int32_t> keys32_;
};

/// Pair classification on two prepared rankings — the same five counts as
/// ComputePairCounts(BucketOrder, BucketOrder), bit-for-bit, with zero heap
/// allocations on a warm scratch. t_sigma*t_tau-aware: when the joint key
/// space is a small multiple of n, one flat-histogram row scan yields
/// tied_both and discordant together in O(n + t_sigma*t_tau) — no sort, no
/// Fenwick; otherwise it falls back to sort-and-run-count on the scratch
/// key buffer plus a Fenwick sweep, O(n log n). Requires
/// sigma.n() == tau.n().
[[nodiscard]] PairCounts ComputePairCounts(
    const PreparedRanking& sigma, const PreparedRanking& tau,
    PairScratch& scratch);

/// 2*Kprof on prepared rankings (paper §3.1); zero-allocation on a warm
/// scratch, bit-identical to TwiceKprof(BucketOrder, BucketOrder).
[[nodiscard]] std::int64_t TwiceKprof(const PreparedRanking& sigma,
                                      const PreparedRanking& tau,
                                      PairScratch& scratch);

/// Kprof as a double, matching Kprof(BucketOrder, BucketOrder) exactly.
[[nodiscard]] double Kprof(const PreparedRanking& sigma,
                           const PreparedRanking& tau, PairScratch& scratch);

/// K^(p) on prepared rankings, bit-identical to the legacy KendallP.
[[nodiscard]] double KendallP(const PreparedRanking& sigma,
                              const PreparedRanking& tau, double p,
                              PairScratch& scratch);

/// KHaus via Proposition 6 on prepared rankings; zero-allocation on a warm
/// scratch, bit-identical to KHausdorff(BucketOrder, BucketOrder).
[[nodiscard]] std::int64_t KHausdorff(const PreparedRanking& sigma,
                                      const PreparedRanking& tau,
                                      PairScratch& scratch);

/// 2*Fprof as a straight L1 walk over the two frozen doubled-position
/// vectors (SIMD-dispatched, util/simd.h); allocation-free (needs no
/// scratch), bit-identical to TwiceFprof(BucketOrder, BucketOrder).
[[nodiscard]] std::int64_t TwiceFprof(const PreparedRanking& sigma,
                                      const PreparedRanking& tau);

/// Fprof as a double, matching Fprof(BucketOrder, BucketOrder) exactly.
[[nodiscard]] double Fprof(const PreparedRanking& sigma,
                           const PreparedRanking& tau);

/// 2*FHaus via the joint-bucket-run decomposition of the Theorem 5
/// construction — the structured replacement for materializing the four
/// refinement permutations per pair. In each of Theorem 5's two candidate
/// pairs, every element of a joint bucket cell (s, t) appears in ascending
/// id order on *both* sides, so the per-element rank displacement is
/// constant across the cell and each candidate footrule collapses to a sum
/// of cnt(s, t) * |cell displacement| over the occupied cells (derivation
/// in DESIGN.md §7). O(n + t_sigma*t_tau) in flat-histogram mode,
/// O(n log n) in the sorted fallback; zero allocations on a warm scratch;
/// bit-identical to TwiceFHausdorff(BucketOrder, BucketOrder), which stays
/// in-tree as the independently-constructed oracle.
[[nodiscard]] std::int64_t TwiceFHausdorff(const PreparedRanking& sigma,
                                           const PreparedRanking& tau,
                                           PairScratch& scratch);

/// FHaus as a double, matching FHausdorff(BucketOrder, BucketOrder)
/// exactly.
[[nodiscard]] double FHausdorff(const PreparedRanking& sigma,
                                const PreparedRanking& tau,
                                PairScratch& scratch);

}  // namespace rankties

#endif  // RANKTIES_CORE_PREPARED_H_
