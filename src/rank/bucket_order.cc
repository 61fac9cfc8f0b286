#include "rank/bucket_order.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/checked_math.h"
#include "util/contracts.h"

namespace rankties {

namespace {

// Bucket indices that group equal keys, smallest key first. The sort need
// not be stable: a bucket index depends only on the key.
template <typename Key>
std::vector<BucketIndex> GroupByKey(const std::vector<Key>& keys,
                                    std::size_t* num_buckets) {
  std::vector<ElementId> by_key(keys.size());
  std::iota(by_key.begin(), by_key.end(), 0);
  std::sort(by_key.begin(), by_key.end(), [&](ElementId a, ElementId b) {
    return keys[static_cast<std::size_t>(a)] <
           keys[static_cast<std::size_t>(b)];
  });
  std::vector<BucketIndex> bucket_of(keys.size());
  BucketIndex b = -1;
  for (std::size_t i = 0; i < by_key.size(); ++i) {
    const std::size_t e = static_cast<std::size_t>(by_key[i]);
    if (i == 0 ||
        keys[e] != keys[static_cast<std::size_t>(by_key[i - 1])]) {
      ++b;
    }
    bucket_of[e] = b;
  }
  *num_buckets = static_cast<std::size_t>(b + 1);
  return bucket_of;
}

}  // namespace

BucketOrder::BucketOrder(std::vector<BucketIndex> bucket_of,
                         std::size_t num_buckets)
    : bucket_of_(std::move(bucket_of)) {
  const std::size_t n = bucket_of_.size();
  // Counting sort: bucket sizes, exclusive prefix sums, then a scatter in
  // ascending element order, which keeps every bucket's ids ascending.
  bucket_offset_.assign(num_buckets + 1, 0);
  for (const BucketIndex b : bucket_of_) {
    ++bucket_offset_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t b = 0; b < num_buckets; ++b) {
    tied_pairs_ = CheckedAdd(
        tied_pairs_,
        CheckedChoose2(static_cast<std::int64_t>(bucket_offset_[b + 1])));
    bucket_offset_[b + 1] += bucket_offset_[b];
  }
  by_bucket_.resize(n);
  twice_pos_.resize(n);
  std::vector<std::size_t> cursor(bucket_offset_.begin(),
                                  bucket_offset_.end() - 1);
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t b = static_cast<std::size_t>(bucket_of_[e]);
    by_bucket_[cursor[b]++] = static_cast<ElementId>(e);
    twice_pos_[e] = TwicePositionOfBucket(b);
  }
  RANKTIES_DCHECK_OK(Validate());
}

StatusOr<BucketOrder> BucketOrder::FromBuckets(
    std::size_t n, const std::vector<std::vector<ElementId>>& buckets) {
  std::vector<BucketIndex> bucket_of(n, -1);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) {
      return Status::InvalidArgument("empty bucket");
    }
    for (ElementId e : buckets[b]) {
      if (e < 0 || static_cast<std::size_t>(e) >= n) {
        return Status::InvalidArgument("element out of range [0, n)");
      }
      if (bucket_of[static_cast<std::size_t>(e)] != -1) {
        return Status::InvalidArgument("element appears in two buckets");
      }
      bucket_of[static_cast<std::size_t>(e)] = static_cast<BucketIndex>(b);
    }
  }
  if (std::find(bucket_of.begin(), bucket_of.end(), -1) != bucket_of.end()) {
    return Status::InvalidArgument("element missing from all buckets");
  }
  return BucketOrder(std::move(bucket_of), buckets.size());
}

StatusOr<BucketOrder> BucketOrder::FromBucketIndex(
    std::vector<BucketIndex> bucket_of) {
  const std::size_t n = bucket_of.size();
  // t <= n, so an index >= n always leaves a gap; checking it first also
  // bounds the occupancy table below by n.
  std::vector<bool> used(n, false);
  std::size_t num_buckets = 0;
  for (const BucketIndex b : bucket_of) {
    if (b < 0) return Status::InvalidArgument("negative bucket index");
    if (static_cast<std::size_t>(b) >= n) {
      return Status::InvalidArgument("bucket indices not contiguous");
    }
    used[static_cast<std::size_t>(b)] = true;
    num_buckets = std::max(num_buckets, static_cast<std::size_t>(b) + 1);
  }
  used.resize(num_buckets);
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    return Status::InvalidArgument("bucket indices not contiguous");
  }
  return BucketOrder(std::move(bucket_of), num_buckets);
}

BucketOrder BucketOrder::FromPermutation(const Permutation& perm) {
  return TopKOf(perm, perm.n());
}

BucketOrder BucketOrder::SingleBucket(std::size_t n) {
  return BucketOrder(std::vector<BucketIndex>(n, 0), n == 0 ? 0 : 1);
}

BucketOrder BucketOrder::TopKOf(const Permutation& perm, std::size_t k) {
  const std::size_t n = perm.n();
  RANKTIES_DCHECK(k <= n);
  std::vector<BucketIndex> bucket_of(n);
  for (std::size_t r = 0; r < n; ++r) {
    bucket_of[static_cast<std::size_t>(perm.At(static_cast<ElementId>(r)))] =
        static_cast<BucketIndex>(std::min(r, k));
  }
  return BucketOrder(std::move(bucket_of), k < n ? k + 1 : n);
}

BucketOrder BucketOrder::FromScores(const std::vector<double>& scores) {
  std::size_t num_buckets = 0;
  std::vector<BucketIndex> bucket_of = GroupByKey(scores, &num_buckets);
  return BucketOrder(std::move(bucket_of), num_buckets);
}

BucketOrder BucketOrder::FromIntKeys(const std::vector<std::int64_t>& keys) {
  std::size_t num_buckets = 0;
  std::vector<BucketIndex> bucket_of = GroupByKey(keys, &num_buckets);
  return BucketOrder(std::move(bucket_of), num_buckets);
}

Status BucketOrder::Validate() const {
  const std::size_t n = bucket_of_.size();
  const std::size_t t = num_buckets();
  if (bucket_offset_.size() != t + 1 || by_bucket_.size() != n ||
      twice_pos_.size() != n) {
    return Status::Internal("flat array sizes are inconsistent");
  }
  if (bucket_offset_.front() != 0 || bucket_offset_.back() != n) {
    return Status::Internal("buckets do not cover the domain");
  }
  std::int64_t tied = 0;
  for (std::size_t b = 0; b < t; ++b) {
    const std::size_t lo = bucket_offset_[b];
    const std::size_t hi = bucket_offset_[b + 1];
    if (hi <= lo) return Status::Internal("empty bucket");
    tied += CheckedChoose2(static_cast<std::int64_t>(hi - lo));
    for (std::size_t k = lo; k < hi; ++k) {
      const ElementId e = by_bucket_[k];
      if (e < 0 || static_cast<std::size_t>(e) >= n) {
        return Status::Internal("bucket element out of range [0, n)");
      }
      if (k > lo && by_bucket_[k - 1] >= e) {
        return Status::Internal("bucket elements not strictly ascending");
      }
      if (bucket_of_[static_cast<std::size_t>(e)] !=
          static_cast<BucketIndex>(b)) {
        return Status::Internal("bucket_of disagrees with the partition");
      }
      // pos(B) = before + (size+1)/2  =>  2*pos = 2*before + size + 1.
      if (twice_pos_[static_cast<std::size_t>(e)] !=
          static_cast<std::int64_t>(2 * lo + (hi - lo) + 1)) {
        return Status::Internal("doubled average position is inconsistent");
      }
    }
  }
  // bucket_of_ agreeing with all n slots of by_bucket_ makes a repeated
  // element impossible, so the slots certify the partition.
  if (tied != tied_pairs_) {
    return Status::Internal("tied-pair count is inconsistent");
  }
  return Status::Ok();
}

std::vector<std::size_t> BucketOrder::Type() const {
  std::vector<std::size_t> type(num_buckets());
  for (std::size_t b = 0; b < type.size(); ++b) {
    type[b] = bucket_offset_[b + 1] - bucket_offset_[b];
  }
  return type;
}

bool BucketOrder::IsTopK(std::size_t k) const {
  if (k > n()) return false;
  if (k == n()) return IsFull();
  // Buckets are non-empty, so the first k are singletons iff bucket k
  // starts at slot k.
  return num_buckets() == k + 1 && bucket_offset_[k] == k;
}

BucketOrder BucketOrder::Reverse() const {
  const BucketIndex t = static_cast<BucketIndex>(num_buckets());
  std::vector<BucketIndex> bucket_of(n());
  for (std::size_t e = 0; e < n(); ++e) bucket_of[e] = t - 1 - bucket_of_[e];
  return BucketOrder(std::move(bucket_of), num_buckets());
}

StatusOr<BucketOrder> BucketOrder::RestrictTo(
    const std::vector<ElementId>& subset) const {
  std::vector<bool> seen(n(), false);
  std::vector<BucketIndex> remap(num_buckets() + 1, 0);
  for (const ElementId e : subset) {
    if (e < 0 || static_cast<std::size_t>(e) >= n()) {
      return Status::InvalidArgument("subset element out of range");
    }
    if (seen[static_cast<std::size_t>(e)]) {
      return Status::InvalidArgument("duplicate subset element");
    }
    seen[static_cast<std::size_t>(e)] = true;
    remap[static_cast<std::size_t>(BucketOf(e)) + 1] = 1;
  }
  // Compact the surviving bucket indices, preserving order: a surviving
  // bucket's new index is the number of surviving buckets before it.
  std::partial_sum(remap.begin(), remap.end(), remap.begin());
  std::vector<BucketIndex> bucket_of(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    bucket_of[i] = remap[static_cast<std::size_t>(BucketOf(subset[i]))];
  }
  return BucketOrder(std::move(bucket_of),
                     static_cast<std::size_t>(remap.back()));
}

Permutation BucketOrder::CanonicalRefinement() const {
  StatusOr<Permutation> perm = Permutation::FromOrder(by_bucket_);
  RANKTIES_DCHECK_OK(perm);
  return std::move(perm).value();
}

std::string BucketOrder::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t b = 0; b < num_buckets(); ++b) {
    if (b > 0) os << " | ";
    for (std::size_t k = bucket_offset_[b]; k < bucket_offset_[b + 1]; ++k) {
      if (k > bucket_offset_[b]) os << " ";
      os << by_bucket_[k];
    }
  }
  os << "]";
  return os.str();
}

void BucketOrder::RecomputePositions(std::size_t lo, std::size_t hi) {
  for (std::size_t b = lo; b <= hi && b < num_buckets(); ++b) {
    const std::int64_t twice_pos = TwicePositionOfBucket(b);
    for (std::size_t k = bucket_offset_[b]; k < bucket_offset_[b + 1]; ++k) {
      twice_pos_[static_cast<std::size_t>(by_bucket_[k])] = twice_pos;
    }
  }
}

void BucketOrder::CollapseEmptyBucket(std::size_t b) {
  RANKTIES_DCHECK(bucket_offset_[b] == bucket_offset_[b + 1]);
  bucket_offset_.erase(bucket_offset_.begin() +
                       static_cast<std::ptrdiff_t>(b));
  for (std::size_t k = bucket_offset_[b]; k < n(); ++k) {
    --bucket_of_[static_cast<std::size_t>(by_bucket_[k])];
  }
}

std::size_t BucketOrder::SlotOf(ElementId e) const {
  const std::size_t b =
      static_cast<std::size_t>(bucket_of_[static_cast<std::size_t>(e)]);
  const auto lo = by_bucket_.begin() +
                  static_cast<std::ptrdiff_t>(bucket_offset_[b]);
  const auto hi = by_bucket_.begin() +
                  static_cast<std::ptrdiff_t>(bucket_offset_[b + 1]);
  const auto slot = std::lower_bound(lo, hi, e);
  RANKTIES_DCHECK(slot != hi && *slot == e);
  return static_cast<std::size_t>(slot - by_bucket_.begin());
}

Status BucketOrder::MoveToBucket(ElementId e, std::size_t target_bucket) {
  if (static_cast<std::size_t>(e) >= n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (target_bucket >= num_buckets()) {
    return Status::InvalidArgument("target bucket out of range");
  }
  const std::size_t s =
      static_cast<std::size_t>(bucket_of_[static_cast<std::size_t>(e)]);
  const std::size_t d = target_bucket;
  if (s == d) return Status::Ok();

  const std::int64_t source_size = static_cast<std::int64_t>(
      bucket_offset_[s + 1] - bucket_offset_[s]);
  const std::int64_t target_size = static_cast<std::int64_t>(
      bucket_offset_[d + 1] - bucket_offset_[d]);
  // choose2(a) - choose2(a-1) = a-1 leaving the source; +b joining the
  // target — exact integer maintenance of the tied-pair count.
  tied_pairs_ = CheckedAdd(tied_pairs_, target_size - (source_size - 1));

  const std::size_t slot = SlotOf(e);
  if (s < d) {
    // Insertion point inside the target's range keeps ids ascending; the
    // range shifts one left once e's old slot is vacated, so rotate to
    // insert_at - 1.
    const auto insert_at = std::lower_bound(
        by_bucket_.begin() + static_cast<std::ptrdiff_t>(bucket_offset_[d]),
        by_bucket_.begin() +
            static_cast<std::ptrdiff_t>(bucket_offset_[d + 1]),
        e);
    std::rotate(by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot),
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot) + 1,
                insert_at);
    for (std::size_t b = s + 1; b <= d; ++b) --bucket_offset_[b];
  } else {
    const auto insert_at = std::lower_bound(
        by_bucket_.begin() + static_cast<std::ptrdiff_t>(bucket_offset_[d]),
        by_bucket_.begin() +
            static_cast<std::ptrdiff_t>(bucket_offset_[d + 1]),
        e);
    std::rotate(insert_at,
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot),
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot) + 1);
    for (std::size_t b = d + 1; b <= s; ++b) ++bucket_offset_[b];
  }
  bucket_of_[static_cast<std::size_t>(e)] = static_cast<BucketIndex>(d);

  std::size_t lo = std::min(s, d);
  std::size_t hi = std::max(s, d);
  if (source_size == 1) {
    // The source bucket emptied: remove it, shifting later buckets down.
    CollapseEmptyBucket(s);
    hi = hi == 0 ? 0 : hi - 1;
  }
  RecomputePositions(lo, hi);
  return Status::Ok();
}

Status BucketOrder::MoveToNewBucket(ElementId e, std::size_t before_bucket) {
  if (static_cast<std::size_t>(e) >= n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (before_bucket > num_buckets()) {
    return Status::InvalidArgument("insertion position out of range");
  }
  const std::size_t s =
      static_cast<std::size_t>(bucket_of_[static_cast<std::size_t>(e)]);
  const std::size_t p = before_bucket;
  const std::int64_t source_size = static_cast<std::int64_t>(
      bucket_offset_[s + 1] - bucket_offset_[s]);
  if (source_size == 1 && (p == s || p == s + 1)) {
    return Status::Ok();  // already a singleton bucket at this position
  }
  tied_pairs_ = CheckedAdd(tied_pairs_, -(source_size - 1));

  const std::size_t slot = SlotOf(e);
  if (p > s) {
    // e travels right: it lands just before the old bucket p, i.e. at the
    // end of the old bucket p-1's range.
    const std::size_t q = bucket_offset_[p];
    std::rotate(by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot),
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot) + 1,
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(q));
    // Buckets strictly between the source and the insertion point lose the
    // slot e vacated; then the new singleton bucket [q-1, q) is spliced in
    // before old bucket p.
    for (std::size_t b = s + 1; b < p; ++b) --bucket_offset_[b];
    bucket_offset_.insert(
        bucket_offset_.begin() + static_cast<std::ptrdiff_t>(p), q - 1);
  } else {
    const std::size_t q = bucket_offset_[p];
    std::rotate(by_bucket_.begin() + static_cast<std::ptrdiff_t>(q),
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot),
                by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot) + 1);
    // The new singleton bucket [q, q+1) displaces buckets p..s one slot to
    // the right; the spliced entry keeps the old off[p] as the new bucket's
    // start.
    bucket_offset_.insert(
        bucket_offset_.begin() + static_cast<std::ptrdiff_t>(p), q);
    for (std::size_t b = p + 1; b <= s + 1; ++b) ++bucket_offset_[b];
  }

  // Reindex bucket_of_ and positions. The source bucket now sits at index
  // s + 1 when the new bucket landed before it.
  const std::size_t source_now = p <= s ? s + 1 : s;
  std::size_t reindex_end;
  if (source_size == 1) {
    // Net bucket count unchanged (one bucket emptied, one inserted):
    // buckets outside [min(p, s), max(p, s)] keep their indices, so only
    // the offset entry is spliced out here — the reindex loop below
    // rewrites bucket_of_ for the affected range, and the suffix was never
    // touched. (CollapseEmptyBucket would wrongly decrement that suffix.)
    RANKTIES_DCHECK(bucket_offset_[source_now] ==
                    bucket_offset_[source_now + 1]);
    bucket_offset_.erase(bucket_offset_.begin() +
                         static_cast<std::ptrdiff_t>(source_now));
    reindex_end = std::max(p, source_now);
    reindex_end = reindex_end == 0 ? 0 : reindex_end - 1;
  } else {
    // Net +1 bucket: every bucket from the insertion point on shifted.
    reindex_end = num_buckets() - 1;
  }
  const std::size_t lo = std::min(p, s);
  for (std::size_t b = lo; b <= reindex_end; ++b) {
    for (std::size_t k = bucket_offset_[b]; k < bucket_offset_[b + 1]; ++k) {
      bucket_of_[static_cast<std::size_t>(by_bucket_[k])] =
          static_cast<BucketIndex>(b);
    }
  }
  RecomputePositions(lo, reindex_end);
  return Status::Ok();
}

Status BucketOrder::InsertItem(std::size_t bucket) {
  if (bucket >= num_buckets() && !(bucket == 0 && n() == 0)) {
    return Status::InvalidArgument("bucket out of range");
  }
  if (n() == 0) {
    // Growing an empty domain: element 0 forms the first bucket.
    *this = SingleBucket(1);
    return Status::Ok();
  }
  const ElementId fresh = static_cast<ElementId>(n());
  const std::int64_t bucket_size = static_cast<std::int64_t>(
      bucket_offset_[bucket + 1] - bucket_offset_[bucket]);
  tied_pairs_ = CheckedAdd(tied_pairs_, bucket_size);
  // The fresh id is the largest, so it slots at the end of its bucket.
  by_bucket_.insert(by_bucket_.begin() + static_cast<std::ptrdiff_t>(
                                             bucket_offset_[bucket + 1]),
                    fresh);
  for (std::size_t b = bucket + 1; b < bucket_offset_.size(); ++b) {
    ++bucket_offset_[b];
  }
  bucket_of_.push_back(static_cast<BucketIndex>(bucket));
  twice_pos_.push_back(0);  // filled by the position sweep below
  RecomputePositions(bucket, num_buckets() - 1);
  return Status::Ok();
}

Status BucketOrder::EraseItem(ElementId e) {
  if (static_cast<std::size_t>(e) >= n()) {
    return Status::InvalidArgument("element out of range");
  }
  const std::size_t s =
      static_cast<std::size_t>(bucket_of_[static_cast<std::size_t>(e)]);
  const std::int64_t source_size = static_cast<std::int64_t>(
      bucket_offset_[s + 1] - bucket_offset_[s]);
  tied_pairs_ = CheckedAdd(tied_pairs_, -(source_size - 1));

  const std::size_t slot = SlotOf(e);
  by_bucket_.erase(by_bucket_.begin() + static_cast<std::ptrdiff_t>(slot));
  // Renumber: ids above e shift down one; subtracting one from every
  // larger id preserves the ascending order within each bucket.
  for (ElementId& id : by_bucket_) {
    if (id > e) --id;
  }
  for (std::size_t b = s + 1; b < bucket_offset_.size(); ++b) {
    --bucket_offset_[b];
  }
  bucket_of_.erase(bucket_of_.begin() + static_cast<std::ptrdiff_t>(e));
  twice_pos_.erase(twice_pos_.begin() + static_cast<std::ptrdiff_t>(e));
  if (source_size == 1) CollapseEmptyBucket(s);
  if (n() > 0) {
    const std::size_t last = num_buckets() - 1;
    RecomputePositions(std::min(s, last), last);
  }
  return Status::Ok();
}

}  // namespace rankties
