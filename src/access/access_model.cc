#include "access/access_model.h"

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

BucketOrderSource::BucketOrderSource(const BucketOrder& order)
    : order_(order) {}

std::optional<SortedAccess> BucketOrderSource::Next() {
  if (bucket_ >= order_.num_buckets()) return std::nullopt;
  const std::span<const ElementId> bucket = order_.bucket(bucket_);
  RANKTIES_BOUNDS(offset_, bucket.size());
  SortedAccess access{bucket[offset_], order_.TwicePositionOfBucket(bucket_)};
  ++offset_;
  if (offset_ >= bucket.size()) {
    offset_ = 0;
    ++bucket_;
  }
  ++accesses_;
  RANKTIES_OBS_COUNT("access.sorted_accesses", 1);
  return access;
}

void BucketOrderSource::Reset() {
  bucket_ = 0;
  offset_ = 0;
  accesses_ = 0;
}

std::vector<std::unique_ptr<SortedAccessSource>> MakeSources(
    const std::vector<BucketOrder>& orders) {
  std::vector<std::unique_ptr<SortedAccessSource>> sources;
  sources.reserve(orders.size());
  for (const BucketOrder& order : orders) {
    sources.push_back(std::make_unique<BucketOrderSource>(order));
  }
  return sources;
}

}  // namespace rankties
