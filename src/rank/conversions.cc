#include "rank/conversions.h"
#include "util/contracts.h"

#include <cmath>
#include <limits>
#include <utility>

namespace rankties {

StatusOr<BucketOrder> QuantizeScores(const std::vector<double>& scores,
                                     double granularity) {
  if (!(granularity > 0)) {
    return Status::InvalidArgument("granularity must be positive");
  }
  constexpr double kTwo63 = 9223372036854775808.0;
  std::vector<std::int64_t> keys(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double band = std::floor(scores[i] / granularity);
    // Non-finite scores (e.g. nulls mapped to +inf) sort last in one band;
    // a finite band must fit int64, or the cast below is UB.
    if (std::isfinite(band) && (band < -kTwo63 || band >= kTwo63)) {
      return Status::InvalidArgument("score band outside the int64 range");
    }
    keys[i] = std::isfinite(band) ? static_cast<std::int64_t>(band)
                                  : std::numeric_limits<std::int64_t>::max();
  }
  return BucketOrder::FromIntKeys(keys);
}

StatusOr<BucketOrder> RankByDistance(const std::vector<double>& scores,
                                     double target, double granularity) {
  if (granularity < 0) {
    return Status::InvalidArgument("granularity must be non-negative");
  }
  std::vector<double> dist(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    dist[i] = std::abs(scores[i] - target);
  }
  if (granularity == 0) return BucketOrder::FromScores(dist);
  return QuantizeScores(dist, granularity);
}

BucketOrder FromScoresDescending(const std::vector<double>& scores) {
  std::vector<double> negated(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) negated[i] = -scores[i];
  return BucketOrder::FromScores(negated);
}

StatusOr<BucketOrder> MergeBuckets(const BucketOrder& order,
                                   const std::vector<std::size_t>& type) {
  std::size_t total = 0;
  for (std::size_t t : type) {
    if (t == 0) return Status::InvalidArgument("zero-length bucket run");
    total += t;
  }
  if (total != order.num_buckets()) {
    return Status::InvalidArgument("type does not cover all buckets");
  }
  std::vector<std::vector<ElementId>> merged;
  merged.reserve(type.size());
  std::size_t b = 0;
  for (std::size_t run : type) {
    std::vector<ElementId> bucket;
    for (std::size_t i = 0; i < run; ++i, ++b) {
      const auto& src = order.bucket(b);
      bucket.insert(bucket.end(), src.begin(), src.end());
    }
    merged.push_back(std::move(bucket));
  }
  return BucketOrder::FromBuckets(order.n(), std::move(merged));
}

StatusOr<BucketOrder> ConsecutiveBlocks(std::size_t n,
                                        const std::vector<std::size_t>& sizes) {
  std::size_t total = 0;
  for (std::size_t s : sizes) {
    if (s == 0) return Status::InvalidArgument("zero bucket size");
    total += s;
  }
  if (total != n) return Status::InvalidArgument("sizes do not sum to n");
  std::vector<std::vector<ElementId>> buckets;
  buckets.reserve(sizes.size());
  ElementId next = 0;
  for (std::size_t s : sizes) {
    std::vector<ElementId> bucket(s);
    for (std::size_t i = 0; i < s; ++i) bucket[i] = next++;
    buckets.push_back(std::move(bucket));
  }
  return BucketOrder::FromBuckets(n, std::move(buckets));
}

BucketOrder Relabel(const BucketOrder& order, const Permutation& relabel) {
  RANKTIES_DCHECK(order.n() == relabel.n());
  std::vector<BucketIndex> bucket_of(order.n());
  for (std::size_t e = 0; e < order.n(); ++e) {
    bucket_of[static_cast<std::size_t>(
        relabel.At(static_cast<ElementId>(e)))] =
        order.BucketOf(static_cast<ElementId>(e));
  }
  StatusOr<BucketOrder> result = BucketOrder::FromBucketIndex(bucket_of);
  RANKTIES_DCHECK_OK(result);
  return std::move(result).value();
}

BucketOrder Concatenate(const BucketOrder& a, const BucketOrder& b) {
  std::vector<BucketIndex> bucket_of(a.n() + b.n());
  for (std::size_t e = 0; e < a.n(); ++e) {
    bucket_of[e] = a.BucketOf(static_cast<ElementId>(e));
  }
  const BucketIndex offset = static_cast<BucketIndex>(a.num_buckets());
  for (std::size_t e = 0; e < b.n(); ++e) {
    bucket_of[a.n() + e] = offset + b.BucketOf(static_cast<ElementId>(e));
  }
  StatusOr<BucketOrder> result = BucketOrder::FromBucketIndex(bucket_of);
  RANKTIES_DCHECK_OK(result);
  return std::move(result).value();
}

}  // namespace rankties
