#include "core/footrule.h"

#include <cstdlib>

#include "util/contracts.h"
#include "util/simd.h"

namespace rankties {

std::int64_t Footrule(const Permutation& sigma, const Permutation& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  std::int64_t total = 0;
  for (std::size_t e = 0; e < sigma.n(); ++e) {
    total += std::abs(
        static_cast<std::int64_t>(sigma.Rank(static_cast<ElementId>(e))) -
        static_cast<std::int64_t>(tau.Rank(static_cast<ElementId>(e))));
  }
  return total;
}

std::int64_t MaxFootrule(std::size_t n) {
  return static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) / 2;
}

std::int64_t TwiceFprof(const BucketOrder& sigma, const BucketOrder& tau) {
  RANKTIES_DCHECK(sigma.n() == tau.n());
  return simd::AbsDiffSumI64(sigma.twice_position().data(),
                             tau.twice_position().data(), sigma.n());
}

double Fprof(const BucketOrder& sigma, const BucketOrder& tau) {
  return static_cast<double>(TwiceFprof(sigma, tau)) / 2.0;
}

StatusOr<std::int64_t> TwiceFootruleLocation(const BucketOrder& sigma,
                                             const BucketOrder& tau,
                                             std::size_t k,
                                             std::int64_t twice_ell) {
  if (sigma.n() != tau.n()) {
    return Status::InvalidArgument("domain size mismatch");
  }
  if (!sigma.IsTopK(k) || !tau.IsTopK(k)) {
    return Status::FailedPrecondition("inputs must be top-k lists");
  }
  if (twice_ell <= static_cast<std::int64_t>(2 * k)) {
    return Status::InvalidArgument("location parameter must exceed k");
  }
  std::int64_t total = 0;
  const std::int64_t threshold = static_cast<std::int64_t>(2 * k);
  for (std::size_t e = 0; e < sigma.n(); ++e) {
    const ElementId id = static_cast<ElementId>(e);
    const std::int64_t s = sigma.TwicePosition(id) <= threshold
                               ? sigma.TwicePosition(id)
                               : twice_ell;
    const std::int64_t t =
        tau.TwicePosition(id) <= threshold ? tau.TwicePosition(id) : twice_ell;
    total += std::abs(s - t);
  }
  return total;
}

}  // namespace rankties
