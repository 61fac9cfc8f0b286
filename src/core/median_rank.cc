#include "core/median_rank.h"

#include <algorithm>
#include <cstdlib>

#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

std::int64_t MedianQuad(std::span<std::int64_t> values, MedianPolicy policy) {
  RANKTIES_DCHECK(!values.empty());
  const std::size_t m = values.size();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(m / 2);
  std::nth_element(values.begin(), mid, values.end());
  const std::int64_t hi = *mid;  // a_{m/2+1}, 1-based
  if (m % 2 == 1 || policy == MedianPolicy::kUpper) return 2 * hi;
  // The m/2 values before `mid` are the smallest; a_{m/2} is their maximum.
  const std::int64_t lo = *std::max_element(values.begin(), mid);
  return policy == MedianPolicy::kLower ? 2 * lo : lo + hi;
}

StatusOr<std::vector<std::int64_t>> MedianRankScoresQuad(
    const std::vector<BucketOrder>& inputs, MedianPolicy policy) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  const std::size_t m = inputs.size();
  std::vector<std::int64_t> scores(n);
  // Per-element medians are independent: parallel over elements, one scratch
  // column per chunk. Each slot is written exactly once — deterministic.
  ParallelFor(0, n, std::max<std::size_t>(1, 2048 / (m + 1)),
              [&](std::size_t lo, std::size_t hi) {
                std::vector<std::int64_t> column(m);
                for (std::size_t e = lo; e < hi; ++e) {
                  for (std::size_t i = 0; i < m; ++i) {
                    column[i] =
                        inputs[i].TwicePosition(static_cast<ElementId>(e));
                  }
                  scores[e] = MedianQuad(column, policy);
                }
              });
  return scores;
}

StatusOr<BucketOrder> MedianInducedOrder(const std::vector<BucketOrder>& inputs,
                                         MedianPolicy policy) {
  StatusOr<std::vector<std::int64_t>> scores =
      MedianRankScoresQuad(inputs, policy);
  if (!scores.ok()) return scores.status();
  return BucketOrder::FromIntKeys(*scores);
}

StatusOr<Permutation> MedianAggregateFull(
    const std::vector<BucketOrder>& inputs, MedianPolicy policy) {
  StatusOr<BucketOrder> induced = MedianInducedOrder(inputs, policy);
  if (!induced.ok()) return induced.status();
  return induced->CanonicalRefinement();
}

StatusOr<BucketOrder> MedianAggregateTopK(
    const std::vector<BucketOrder>& inputs, std::size_t k,
    MedianPolicy policy) {
  StatusOr<Permutation> full = MedianAggregateFull(inputs, policy);
  if (!full.ok()) return full.status();
  if (k > full->n()) {
    return Status::InvalidArgument("k exceeds domain size");
  }
  return BucketOrder::TopKOf(*full, k);
}

std::int64_t TotalL1ToInputsQuad(const std::vector<std::int64_t>& f_quad,
                                 const std::vector<BucketOrder>& inputs) {
  // Parallel over inputs into per-input partial sums, reduced serially —
  // integer addition, so the total is exact and thread-count independent.
  std::vector<std::int64_t> partial(inputs.size(), 0);
  ParallelFor(0, inputs.size(),
              std::max<std::size_t>(1, 4096 / (f_quad.size() + 1)),
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  const BucketOrder& input = inputs[i];
                  RANKTIES_DCHECK(input.n() == f_quad.size());
                  std::int64_t sum = 0;
                  for (std::size_t e = 0; e < f_quad.size(); ++e) {
                    sum += std::abs(
                        f_quad[e] -
                        2 * input.TwicePosition(static_cast<ElementId>(e)));
                  }
                  partial[i] = sum;
                }
              });
  std::int64_t total = 0;
  for (const std::int64_t sum : partial) total += sum;
  return total;
}

}  // namespace rankties
