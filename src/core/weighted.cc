#include "core/weighted.h"

#include <algorithm>

#include "core/footrule.h"

namespace rankties {

namespace {

Status Validate(const std::vector<BucketOrder>& inputs,
                const std::vector<std::int64_t>& weights) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  if (weights.size() != inputs.size()) {
    return Status::InvalidArgument("one weight per input required");
  }
  for (std::int64_t w : weights) {
    if (w <= 0) return Status::InvalidArgument("weights must be positive");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<std::int64_t>> WeightedMedianScoresQuad(
    const std::vector<BucketOrder>& inputs,
    const std::vector<std::int64_t>& weights) {
  Status s = Validate(inputs, weights);
  if (!s.ok()) return s;
  const std::size_t n = inputs.front().n();
  std::int64_t total_weight = 0;
  for (std::int64_t w : weights) total_weight += w;

  std::vector<std::int64_t> scores(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> column(inputs.size());
  for (std::size_t e = 0; e < n; ++e) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      column[i] = {inputs[i].TwicePosition(static_cast<ElementId>(e)),
                   weights[i]};
    }
    std::sort(column.begin(), column.end());
    // Lower weighted median: first value with 2 * cumulative >= total.
    std::int64_t cumulative = 0;
    std::int64_t median = column.back().first;
    for (const auto& [value, weight] : column) {
      cumulative += weight;
      if (2 * cumulative >= total_weight) {
        median = value;
        break;
      }
    }
    scores[e] = 2 * median;
  }
  return scores;
}

StatusOr<Permutation> WeightedMedianAggregateFull(
    const std::vector<BucketOrder>& inputs,
    const std::vector<std::int64_t>& weights) {
  StatusOr<std::vector<std::int64_t>> scores =
      WeightedMedianScoresQuad(inputs, weights);
  if (!scores.ok()) return scores.status();
  return BucketOrder::FromIntKeys(*scores).CanonicalRefinement();
}

StatusOr<BucketOrder> WeightedMedianAggregateTopK(
    const std::vector<BucketOrder>& inputs,
    const std::vector<std::int64_t>& weights, std::size_t k) {
  StatusOr<Permutation> full = WeightedMedianAggregateFull(inputs, weights);
  if (!full.ok()) return full.status();
  if (k > full->n()) return Status::InvalidArgument("k exceeds domain size");
  return BucketOrder::TopKOf(*full, k);
}

StatusOr<std::int64_t> WeightedTwiceTotalFprof(
    const BucketOrder& candidate, const std::vector<BucketOrder>& inputs,
    const std::vector<std::int64_t>& weights) {
  Status s = Validate(inputs, weights);
  if (!s.ok()) return s;
  if (candidate.n() != inputs.front().n()) {
    return Status::InvalidArgument("candidate domain size differs");
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    total += weights[i] * TwiceFprof(candidate, inputs[i]);
  }
  return total;
}

}  // namespace rankties
