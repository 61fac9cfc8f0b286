#include "core/borda.h"

namespace rankties {

StatusOr<Permutation> BordaAggregateFull(
    const std::vector<BucketOrder>& inputs) {
  StatusOr<BucketOrder> induced = BordaInducedOrder(inputs);
  if (!induced.ok()) return induced.status();
  return induced->CanonicalRefinement();
}

StatusOr<BucketOrder> BordaInducedOrder(
    const std::vector<BucketOrder>& inputs) {
  if (Status s = ValidateProfile(inputs); !s.ok()) return s;
  const std::size_t n = inputs.front().n();
  std::vector<std::int64_t> sums(n, 0);  // sum of doubled positions
  for (const BucketOrder& input : inputs) {
    for (std::size_t e = 0; e < n; ++e) {
      sums[e] += input.TwicePosition(static_cast<ElementId>(e));
    }
  }
  return BucketOrder::FromIntKeys(sums);
}

}  // namespace rankties
