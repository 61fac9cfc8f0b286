#include "gen/random_orders.h"
#include "util/contracts.h"

#include <algorithm>
#include <numeric>

namespace rankties {

std::vector<std::size_t> RandomType(std::size_t n, Rng& rng) {
  std::vector<std::size_t> type;
  if (n == 0) return type;
  std::size_t run = 1;
  for (std::size_t gap = 1; gap < n; ++gap) {
    if (rng.Bernoulli(0.5)) {
      type.push_back(run);
      run = 1;
    } else {
      ++run;
    }
  }
  type.push_back(run);
  return type;
}

namespace {

BucketOrder AssembleRandom(std::size_t n, const std::vector<std::size_t>& type,
                           Rng& rng) {
  std::vector<ElementId> elems(n);
  std::iota(elems.begin(), elems.end(), 0);
  rng.Shuffle(elems);
  std::vector<std::vector<ElementId>> buckets;
  buckets.reserve(type.size());
  std::size_t at = 0;
  for (std::size_t size : type) {
    buckets.emplace_back(
        elems.begin() + static_cast<std::ptrdiff_t>(at),
        elems.begin() + static_cast<std::ptrdiff_t>(at + size));
    at += size;
  }
  StatusOr<BucketOrder> order = BucketOrder::FromBuckets(n, std::move(buckets));
  RANKTIES_DCHECK_OK(order);
  return std::move(order).value();
}

}  // namespace

BucketOrder RandomBucketOrder(std::size_t n, Rng& rng) {
  return AssembleRandom(n, RandomType(n, rng), rng);
}

BucketOrder RandomBucketOrderWithBuckets(std::size_t n, std::size_t t,
                                         Rng& rng) {
  RANKTIES_DCHECK(t >= 1 && t <= n);
  // Stars and bars: choose t-1 distinct boundaries among the n-1 gaps.
  std::vector<std::size_t> gaps(n - 1);
  std::iota(gaps.begin(), gaps.end(), 1);
  rng.Shuffle(gaps);
  std::vector<std::size_t> cuts(
      gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(t - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(n);
  std::vector<std::size_t> type;
  std::size_t prev = 0;
  for (std::size_t cut : cuts) {
    type.push_back(cut - prev);
    prev = cut;
  }
  return AssembleRandom(n, type, rng);
}

BucketOrder RandomTopK(std::size_t n, std::size_t k, Rng& rng) {
  RANKTIES_DCHECK(k <= n);
  return BucketOrder::TopKOf(Permutation::Random(n, rng), k);
}

BucketOrder RandomFewValued(std::size_t n, double mean_bucket, Rng& rng) {
  RANKTIES_DCHECK(mean_bucket >= 1.0);
  const double p = 1.0 / mean_bucket;  // geometric "stop the bucket" prob.
  std::vector<std::size_t> type;
  std::size_t remaining = n;
  while (remaining > 0) {
    std::size_t size = 1;
    while (size < remaining && !rng.Bernoulli(p)) ++size;
    size = std::min(size, remaining);
    type.push_back(size);
    remaining -= size;
  }
  return AssembleRandom(n, type, rng);
}

}  // namespace rankties
