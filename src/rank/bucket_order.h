#ifndef RANKTIES_RANK_BUCKET_ORDER_H_
#define RANKTIES_RANK_BUCKET_ORDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rank/element.h"
#include "rank/permutation.h"
#include "util/status.h"

namespace rankties {

/// A bucket order / partial ranking over the domain {0..n-1} (paper §2).
///
/// A bucket order is a linear order with ties: an ordered partition
/// B1 < B2 < ... < Bt of the domain. The associated partial ranking assigns
/// every element of bucket Bi the position
///     pos(Bi) = sum_{j<i} |Bj| + (|Bi|+1)/2,
/// the average 1-based location within the bucket. Positions are always
/// integer multiples of 1/2, so the library stores the exact doubled value
/// (`TwicePosition`) and performs all metric arithmetic on integers.
///
/// The storage is the frozen form the pairwise kernels (core/prepared.h)
/// read directly: four flat arrays plus the tied-pair count, built in
/// O(n + t) by one counting sort, so a copy costs four allocations whatever
/// the bucket count.
///
/// Invariants (enforced by the factory functions, kept by the delta ops,
/// re-checked by Validate()):
///  * buckets partition {0..n-1}; every bucket is non-empty;
///  * elements within each bucket are listed in increasing id order
///    (buckets are *sets*; the stored order is for determinism only).
class BucketOrder {
 public:
  /// An empty-domain bucket order (n = 0, no buckets).
  BucketOrder() = default;

  /// Builds from explicit buckets, front bucket first. Fails unless the
  /// buckets form a partition of {0..n-1} with no empty bucket.
  static StatusOr<BucketOrder> FromBuckets(
      std::size_t n, const std::vector<std::vector<ElementId>>& buckets);

  /// Builds from a bucket-index vector: `bucket_of[e]` = index of e's bucket.
  /// Indices must use 0..t-1 contiguously. Fails otherwise.
  static StatusOr<BucketOrder> FromBucketIndex(
      std::vector<BucketIndex> bucket_of);

  /// The full ranking corresponding to a permutation (all buckets singleton).
  static BucketOrder FromPermutation(const Permutation& perm);

  /// All n elements tied in one bucket.
  static BucketOrder SingleBucket(std::size_t n);

  /// Top-k list (paper §2): the first k elements of `perm` as singleton
  /// buckets followed by one bottom bucket with the remaining n-k elements.
  /// Requires 0 <= k <= n; k == n yields the full ranking.
  static BucketOrder TopKOf(const Permutation& perm, std::size_t k);

  /// Groups elements by a score (smaller score = better); elements with
  /// equal scores are tied. Scores must not be NaN (±inf sorts normally).
  static BucketOrder FromScores(const std::vector<double>& scores);

  /// Like FromScores but on exact integer keys. by_bucket() lists the
  /// elements by key, ties by ascending id, and CanonicalRefinement() is
  /// that list as a full ranking: the ordering step of the median, Borda
  /// and f-dagger aggregators.
  static BucketOrder FromIntKeys(const std::vector<std::int64_t>& keys);

  std::size_t n() const { return bucket_of_.size(); }
  /// Guarded so a moved-from order reads as the empty one.
  std::size_t num_buckets() const {
    return bucket_offset_.empty() ? 0 : bucket_offset_.size() - 1;
  }

  /// Elements of bucket `b` (ascending element id), 0-based bucket index.
  std::span<const ElementId> bucket(std::size_t b) const {
    return {by_bucket_.data() + bucket_offset_[b],
            bucket_offset_[b + 1] - bucket_offset_[b]};
  }

  /// Index of the bucket containing `e`.
  BucketIndex BucketOf(ElementId e) const {
    return bucket_of_[static_cast<std::size_t>(e)];
  }

  /// Exact doubled position 2*sigma(e) (always integral; paper §2).
  std::int64_t TwicePosition(ElementId e) const {
    return twice_pos_[static_cast<std::size_t>(e)];
  }

  /// sigma(e) = pos of e's bucket, 1-based, as a double.
  double Position(ElementId e) const {
    return static_cast<double>(TwicePosition(e)) / 2.0;
  }

  /// Doubled position of bucket `b`:
  /// 2*pos(B_b) = 2*sum_{j<b}|B_j| + |B_b| + 1 = off[b] + off[b+1] + 1.
  std::int64_t TwicePositionOfBucket(std::size_t b) const {
    return static_cast<std::int64_t>(bucket_offset_[b] +
                                     bucket_offset_[b + 1]) +
           1;
  }

  /// True if `a` is strictly ahead of `b` (sigma(a) < sigma(b)).
  bool Ahead(ElementId a, ElementId b) const {
    return BucketOf(a) < BucketOf(b);
  }
  /// True if `a` and `b` are tied (same bucket).
  bool Tied(ElementId a, ElementId b) const {
    return BucketOf(a) == BucketOf(b);
  }

  /// --- The flat arrays the kernels read ---------------------------------

  /// bucket_of()[e] = index of e's bucket (dense, element-indexed).
  const std::vector<BucketIndex>& bucket_of() const { return bucket_of_; }

  /// Elements counting-sorted by bucket, front bucket first, ascending id
  /// within a bucket.
  const std::vector<ElementId>& by_bucket() const { return by_bucket_; }

  /// bucket_offset()[b] .. bucket_offset()[b+1] delimit bucket b inside
  /// by_bucket(); size num_buckets()+1.
  const std::vector<std::size_t>& bucket_offset() const {
    return bucket_offset_;
  }

  /// twice_position()[e] = 2*sigma(e) (element-indexed).
  const std::vector<std::int64_t>& twice_position() const {
    return twice_pos_;
  }

  /// Number of unordered pairs tied in this ranking
  /// (sum over buckets of |B| choose 2).
  std::int64_t tied_pairs() const { return tied_pairs_; }

  /// The type of the bucket order: the sequence of bucket sizes (paper A.1).
  std::vector<std::size_t> Type() const;

  /// True if every bucket is a singleton (a full ranking).
  bool IsFull() const { return num_buckets() == n(); }

  /// True if this is a top-k list: k singleton buckets then one bottom
  /// bucket (a full ranking is a top-n list).
  bool IsTopK(std::size_t k) const;

  /// The reverse partial ranking sigma^R, sigma^R(d) = |D|+1-sigma(d).
  BucketOrder Reverse() const;

  /// Full structural well-formedness check, O(n): the offsets delimit
  /// non-empty buckets covering by_bucket(), which lists every element of
  /// {0..n-1} once, ascending within each bucket; `bucket_of` agrees with
  /// it; every doubled position equals the paper's average-position
  /// formula 2*pos(Bi) = 2*sum_{j<i}|Bj| + |Bi| + 1; and tied_pairs() is
  /// the sum of the bucket sizes choose 2. Every factory re-checks it in
  /// debug builds (RANKTIES_DCHECK_OK(Validate())).
  [[nodiscard]] Status Validate() const;

  /// The induced partial ranking on a subset of the domain: keep only the
  /// elements of `subset` (old ids), renumber them 0..|subset|-1 in the
  /// order given by `subset`, and drop now-empty buckets. Used to push
  /// rankings through db filters. Fails on out-of-range or duplicate ids.
  StatusOr<BucketOrder> RestrictTo(const std::vector<ElementId>& subset) const;

  /// The full ranking obtained by breaking all ties in increasing element-id
  /// order (a canonical full refinement; used for deterministic output).
  Permutation CanonicalRefinement() const;

  /// "[0 1 | 2 | 3 4]": buckets front-to-back, elements ascending.
  std::string ToString() const;

  /// --- Delta operations (incremental engines) --------------------------
  ///
  /// Each edit repairs only the affected range of the flat arrays and
  /// leaves the result indistinguishable from a fresh factory build of the
  /// edited partition — array-for-array, bit-for-bit (fuzzed by the
  /// mutation-trace family). Costs below are in touched array slots; `t`
  /// is the bucket count. Failed calls leave the ranking unchanged.

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

  /// Structural equality: same partition into the same ordered buckets
  /// (bucket_of determines every other array).
  friend bool operator==(const BucketOrder& a, const BucketOrder& b) {
    return a.bucket_of_ == b.bucket_of_;
  }

 private:
  /// The one constructor every factory funnels through: counting-sorts the
  /// domain by `bucket_of` (contiguous indices 0..num_buckets-1, every
  /// bucket non-empty) and derives the other arrays. O(n + t).
  BucketOrder(std::vector<BucketIndex> bucket_of, std::size_t num_buckets);

  /// Rewrites twice_pos_ for every element of buckets [lo, hi].
  void RecomputePositions(std::size_t lo, std::size_t hi);

  /// Removes the (empty) bucket `b`: erases its offset entry and shifts
  /// bucket_of_ down for every element of later buckets. O(suffix).
  void CollapseEmptyBucket(std::size_t b);

  /// Slot of `e` inside its bucket's by_bucket_ range (elements ascend by
  /// id within a bucket, so this is a binary search).
  std::size_t SlotOf(ElementId e) const;

  std::vector<BucketIndex> bucket_of_;         // element -> bucket
  std::vector<ElementId> by_bucket_;           // elements grouped by bucket
  std::vector<std::size_t> bucket_offset_{0};  // bucket -> by_bucket_ range
  std::vector<std::int64_t> twice_pos_;        // element -> 2*pos
  std::int64_t tied_pairs_ = 0;
};

/// The profile check the aggregators run on their input rankings (paper §6:
/// a profile is the list sigma_1..sigma_m being aggregated).
/// Fails with InvalidArgument on an empty list, on n = 0, or unless every
/// ranking has the first one's domain size, checked in that order.
[[nodiscard]] Status ValidateProfile(const std::vector<BucketOrder>& inputs);

}  // namespace rankties

#endif  // RANKTIES_RANK_BUCKET_ORDER_H_
